(** What one benchmark run accumulates: operations attempted and
    failed, the first failure messages, and metric values by name. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** first few, newest first *)
  mutable setup_raw_s : float;   (** median set-up wall time *)
  values : (string, float) Hashtbl.t;
}

let create () =
  {
    attempted = 0;
    failed = 0;
    errors = [];
    setup_raw_s = 0.0;
    values = Hashtbl.create 64;
  }

let now = Unix.gettimeofday

let set r name v = Hashtbl.replace r.values name v

let attempt r = r.attempted <- r.attempted + 1

(** Count a failed operation; the first few messages are kept for the
    summary. *)
let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.errors < 8 then r.errors <- msg :: r.errors

let check r = function Ok v -> Some v | Error msg -> fail r msg; None

(** Set-ups per run: [setup_s] is their median. *)
let setup_reps = 5

(** Run [setup] {!setup_reps} times, each after a calibration, and keep
    the last result; the median of the wall times becomes the run's
    [setup_s] once calibrated ({!measure}).  [teardown] retires every
    result but the last. *)
let setup_median r ?(teardown = ignore) setup =
  let rec go i acc =
    Calib.measure ();
    let t0 = now () in
    let v = setup () in
    let dt = now () -. t0 in
    if i = setup_reps then (v, dt :: acc)
    else begin
      teardown v;
      go (i + 1) (dt :: acc)
    end
  in
  let v, times = go 1 [] in
  r.setup_raw_s <- Stats.median (Array.of_list times);
  v

(** One measured window: per-op latencies in seconds ([infinity] for
    an op that failed or missed its limit), the ops that counted as
    good, the elapsed wall time, and, for windows made of whole rounds,
    the median time of each distinct op of a round. *)
type window = {
  lat : float array;
  good : int;
  elapsed : float;
  op_medians : float array;
}

(** Good ops per second.  For a window of rounds: one round's ops over
    the sum of their median times, which a burst of load from outside
    the benchmark moves less than the total does. *)
let ops_per_s w =
  if Array.length w.op_medians > 0 then
    float_of_int (Array.length w.op_medians)
    /. Float.max 1e-9 (Array.fold_left ( +. ) 0.0 w.op_medians)
  else float_of_int w.good /. Float.max 1e-9 w.elapsed

(** Median op latency.  For a window of rounds, the median of the ops'
    median times: a round mixes ops whose times differ by orders of
    magnitude, and the pooled median would jump between neighbouring
    ops' times. *)
let p50_ms w =
  Stats.median (if Array.length w.op_medians > 0 then w.op_medians else w.lat)
  *. 1e3

(** [rounds ~seconds round] runs whole rounds until [seconds] have
    elapsed, so every window holds the same mix of operations, with a
    calibration ({!Calib}) before each round.  [round] reports each op's
    latency, under a key naming the op within the round, and whether it
    was good. *)
let rounds ~seconds round =
  let lat = ref [] and good = ref 0 in
  let by_key = Hashtbl.create 64 in
  let record ~key ~ok l =
    lat := (if ok then l else Float.infinity) :: !lat;
    if ok then incr good;
    Hashtbl.replace by_key key
      ((if ok then l else Float.infinity)
      :: Option.value ~default:[] (Hashtbl.find_opt by_key key))
  in
  let t0 = now () in
  while now () -. t0 < seconds do
    Calib.measure ();
    round record
  done;
  {
    lat = Array.of_list !lat;
    good = !good;
    elapsed = now () -. t0;
    op_medians =
      Hashtbl.fold (fun _ l acc -> Stats.median (Array.of_list l) :: acc) by_key []
      |> Array.of_list;
  }

(** The run's calibration factor for a window: {!Calib.scale} for a
    window of rounds, whose work runs in this process; 1 for an
    open-loop window, whose latency is the serve daemon's and which the
    calibration was measured not to track, and whose rate is goodput at
    a fixed offered load. *)
let factor w = if Array.length w.op_medians > 0 then Calib.scale () else 1.0

(** Untraced runs report the window's end-to-end metrics, calibrated:
    set-up and op times multiplied by the window's {!factor}, its rate
    divided by it.  Traced runs split the time: an untraced half, then a
    traced half whose spans give the per-layer numbers; the difference
    between the two halves' end-to-end values is the tracing
    overhead. *)
let measure r ~seconds ~trace window =
  let calibrated w =
    let k = factor w in
    (ops_per_s w /. k, p50_ms w *. k)
  in
  let w =
    if not trace then begin
      Spans.disable ();
      let w = window seconds in
      let rate, p50 = calibrated w in
      set r "ops_per_s" rate;
      set r "op_p50_ms" p50;
      Fmt.pr "uncalibrated: ops_per_s %.4g, op_p50_ms %.4g, setup_s %.4g@."
        (ops_per_s w) (p50_ms w) r.setup_raw_s;
      w
    end
    else begin
      Spans.disable ();
      let wu = window (seconds /. 2.0) in
      Spans.enable ();
      let wt = window (seconds /. 2.0) in
      Spans.disable ();
      let pct t u = (t -. u) /. Float.max 1e-12 u *. 100.0 in
      let ru, pu = calibrated wu and rt, pt = calibrated wt in
      set r "trace.overhead_pct.ops_per_s" (pct rt ru);
      set r "trace.overhead_pct.op_p50_ms" (pct pt pu);
      Fmt.pr "tracing overhead: ops_per_s %.4g untraced, %.4g traced; \
              op_p50_ms %.4g untraced, %.4g traced@."
        ru rt pu pt;
      wt
    end
  in
  set r "setup_s" (r.setup_raw_s *. factor w);
  w

(** Mean milliseconds of the spans called [name]; 0 when none ran. *)
let mean_ms spans name = Stats.mean (Array.of_list (Spans.durations spans name)) *. 1e3
