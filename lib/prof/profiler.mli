(** Profiling driver: runs the program's profile-mode bytecode on the vm
    ({!Vmcode.profile}) and builds a {!Profile.t} from the dense
    counters.  The vm keeps the dynamic call-site stack, so call-site
    mod/ref LOC sets accumulate the effects of entire call subtrees
    (§3.2.1). *)

(** Run the program and collect edge + alias profiles, with whatever
    inputs its [main] sets up (workloads select train vs ref inputs
    through a global).  Also annotates the program's block frequencies
    from the collected edge profile.  The program must be unspeculated
    (a freshly lowered one); the result's output and counters are those
    of an uninstrumented run. *)
val profile :
  ?fuel:int ->
  ?heap_bytes:int ->
  Spec_ir.Sir.prog ->
  Profile.t * Interp.result
