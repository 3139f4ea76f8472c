(** Token-level reader/writer helpers for the FDO on-disk formats. *)

exception Error of string

(** Deterministic quoting: double-quoted with backslash escapes (quote,
    backslash, newline, tab, hex byte). *)
val quote : string -> string

(** [quote], appended to a buffer. *)
val add_quoted : Buffer.t -> string -> unit

(** [string_of_int], appended to a buffer. *)
val add_int : Buffer.t -> int -> unit

type lexer

val make : string -> lexer
val fail : lexer -> string -> 'a
val at_eof : lexer -> bool

(** Next token: a bare word or the contents of a quoted string. *)
val token : lexer -> string

(** [expect], [int_tok], [bool_tok] and [tag] read a plain bare token
    (a word, a decimal integer of at most 18 digits, [0] or [1]) in
    place.  On any other input they read it with {!token} and accept
    and reject exactly what they would have through it, with the same
    messages. *)

(** Next token, which must equal the argument. *)
val expect : lexer -> string -> unit

val int_tok : lexer -> int

(** Hex-float ([%h]) tokens; round-trip exactly. *)
val float_tok : lexer -> float

val bool_tok : lexer -> bool

(** [tag lx ~what tags]: the value paired with the next token in
    [tags], whose words are bare; a token that is none of them fails
    with [what] and the token quoted. *)
val tag : lexer -> what:string -> (string * 'a) array -> 'a

(** [tag_or lx tags other]: as {!tag}, but a token [t] that is none of
    the [tags] reads as [other lx t]. *)
val tag_or :
  lexer -> (string * 'a) array -> (lexer -> string -> 'a) -> 'a
