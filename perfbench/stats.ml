(** Order statistics for the benchmark's reported timings, and the
    seeded shuffle its workloads draw orders from. *)

(** Samples a reported percentile must leave beyond it before the
    benchmark trusts it: the tail of a timing is only reported where at
    least this many observations lie above it. *)
let min_beyond = 10

(** Nearest-rank position (1-based) of percentile [p] in [n] samples. *)
let rank ~n p =
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  max 1 (min n r)

(** Samples strictly beyond the nearest-rank [p]-th percentile. *)
let beyond ~n p = n - rank ~n p

let supported ~n p = n > 0 && beyond ~n p >= min_beyond

(** The highest of [candidates] (percentiles, e.g. [[99.; 95.; 90.]])
    that [n] samples support, if any. *)
let tail_percentile ~n candidates =
  List.fold_left
    (fun best p ->
      if supported ~n p then
        match best with Some b when b >= p -> best | _ -> Some p
      else best)
    None candidates

(** Nearest-rank percentile of an unsorted sample.
    @raise Invalid_argument on an empty sample. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s.(rank ~n p - 1)

let median xs = percentile xs 50.0

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(** Fisher-Yates shuffle in place, driven by [rng]. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done
