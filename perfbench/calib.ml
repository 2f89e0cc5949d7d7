(** Host-speed calibration.

    On a shared host, memory-system contention from outside the machine
    makes this program run up to twice as fast or as slow from one
    minute to the next, while pure arithmetic holds steady.  A fixed
    memory-bound workload — random reads over, then a sequential sweep
    through, a 64 MB array, larger than any per-core cache — is timed
    between the measurements of a run; it is the benchmark's own code,
    so no change to the program moves it.  The end-to-end times of work
    done in this process are scaled by
    [reference_s / median calibration time]: they read as the time the
    work would take on the host with the calibration at [reference_s].  The raw calibration time is reported as the
    per-layer [host.cal_ms]. *)

(** Median calibration time on the host the benchmark was tuned on
    (2-core x86-64 VM). *)
let reference_s = 0.02

let arena = lazy (Array.make (8 * 1024 * 1024) 1)

let work () =
  let a = Lazy.force arena in
  let n = Array.length a in
  let x = ref 1 and s = ref 0 in
  for _ = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    s := !s + a.(!x mod n)
  done;
  for i = 0 to n - 1 do
    a.(i) <- a.(i) + 1
  done;
  !s

(** Raw calibration times of this run, seconds. *)
let samples : float list ref = ref []

(** Time one calibration (the arena's allocation stays outside it). *)
let measure () =
  ignore (Lazy.force arena);
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  samples := (Unix.gettimeofday () -. t0) :: !samples

(** The run's scale factor for times: [reference_s] over the median
    calibration.  One factor per run, from calibrations spread over it:
    a single 20 ms calibration is noisier than the drift it tracks. *)
let scale () =
  if !samples = [] then 1.0
  else reference_s /. Stats.median (Array.of_list !samples)

let median_ms () =
  if !samples = [] then 0.0 else Stats.median (Array.of_list !samples) *. 1e3
