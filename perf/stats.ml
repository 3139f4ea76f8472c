(* Summary statistics for the benchmark's samples. *)

let sorted (xs : float list) =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p] of the samples at or below it.  0 when empty. *)
let percentile (a : float array) p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the [p] percentile of [n] samples.  A tail
   percentile is trusted only with at least 10 samples beyond it. *)
let beyond n p =
  n - int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))

let supported n p = beyond n p >= 10

(* The tail percentile reported for [n] samples: the highest of p99,
   p95, p90 and p80 that has at least 10 samples beyond it, else the
   median. *)
let tail n =
  Option.value ~default:0.5
    (List.find_opt (supported n) [ 0.99; 0.95; 0.9; 0.8 ])

let median xs = percentile (sorted xs) 0.5

let sum xs = List.fold_left ( +. ) 0. xs

let geomean = function
  | [] -> 0.
  | xs ->
    exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* The offered rate at which the p99 latency crosses [slo], interpolated
   between the two rungs that bracket the crossing: linear in p99,
   logarithmic in rate.  [rungs] are (rate, p99) pairs in ascending rate;
   a rung with failed requests carries an infinite p99.  When every rung
   meets the SLO the top rate is returned; when the bottom rung already
   misses it, the bottom rate scaled down by how far it missed. *)
let max_rps ~slo (rungs : (float * float) list) =
  let rec go prev = function
    | [] -> (match prev with Some (r, _) -> r | None -> 0.)
    | (r, p) :: rest when p <= slo -> go (Some (r, p)) rest
    | (r, p) :: _ -> (
      match prev with
      | None -> if Float.is_finite p then r *. slo /. p else r /. 2.
      | Some (r0, p0) ->
        if not (Float.is_finite p) then r0
        else
          let f = (slo -. p0) /. (p -. p0) in
          exp (log r0 +. (f *. (log r -. log r0))))
  in
  go None rungs
