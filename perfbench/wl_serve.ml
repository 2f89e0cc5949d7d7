(** [serve]: an open loop at one fixed offered rate against a private
    [crush serve] daemon with its request journal on.  One thread, at
    most two connections in flight, multiplexed with [select]; every
    request is timed from the moment it was due. *)

module J = Exec.Jsonl

(** Offered load, requests/s: about half the rate at which the p95
    latency crosses {!limit_s} (between 64/s and 72/s on a 2-core
    x86-64 host, measured with [--find-rate]; see perfbench/README.md). *)
let rate = 32.0

(** The latency limit a good request meets. *)
let limit_s = 0.2

(** Small kernels: their simulations keep batch-tier jobs short. *)
let kernels = [ "gsum"; "gsumif"; "atax"; "bicg" ]


(** Connections in flight, and domains for the gate's local runs: no
    more than the host has cores. *)
let connections = max 1 (min 2 (Domain.recommended_domain_count ()))

let deadline_ms = 10_000
let max_cycles = 100_000
let timeout_s = 10.0

type kind =
  | Fresh      (** cache-warm, fresh seed: batch tier, image-cache hit,
                   result-cache miss *)
  | Repeat     (** exact repeat: result-cache hit *)
  | Sanitized  (** sanitize:true: always the worker tier *)
  | Cold       (** source with a new digest: compiled in a worker *)

(** The request mix per 100 requests.  Exact counts, shuffled, with the
    kernels dealt round-robin within each kind: every window holds the
    same mix, so its latency median never moves from one kernel's time
    to a neighbour's on the luck of the draw. *)
let mix = [ (Fresh, 70); (Repeat, 15); (Sanitized, 12); (Cold, 3) ]

type job = {
  kind : kind;
  kernel : string;
  seed : int;
  source : string option;  (** cold jobs send source text *)
  body : string;
}

let body_of ~kernel ~seed ~sanitize ~source =
  let payload =
    match source with
    | Some text -> ("source", J.String text)
    | None -> ("kernel", J.String kernel)
  in
  J.to_string
    (J.Obj
       [
         payload;
         ("strategy", J.String "bb");
         ("technique", J.String "crush");
         ("seed", J.Int seed);
         ("max_cycles", J.Int max_cycles);
         ("sanitize", J.Bool sanitize);
         ("deadline_ms", J.Int deadline_ms);
       ])

let make_job ~kind ~kernel ~seed ~source =
  {
    kind;
    kernel;
    seed;
    source;
    body = body_of ~kernel ~seed ~sanitize:(kind = Sanitized) ~source;
  }

(** The seeded request schedule of one window: [n] jobs, job [i] due
    [i / rate] seconds after the start.  [window] keeps cold-job digests
    distinct across windows of one daemon. *)
let schedule rng ~window ~n =
  let deck = Array.of_list (List.concat_map (fun (k, c) -> List.init c (fun _ -> k)) mix) in
  let dealt = Hashtbl.create 4 in
  let next_kernel kind =
    let c = Option.value ~default:0 (Hashtbl.find_opt dealt kind) in
    Hashtbl.replace dealt kind (c + 1);
    List.nth kernels (c mod List.length kernels)
  in
  let fresh_seed () = 1 + Random.State.int rng 999_999 in
  let jobs = Array.make n None in
  for i = 0 to n - 1 do
    if i mod Array.length deck = 0 then Stats.shuffle rng deck;
    (* Repeats copy a fresh job 20..100 places back: old enough to have
       completed, recent enough to be in the result cache. *)
    let earlier =
      List.filter_map
        (fun j ->
          match jobs.(j) with
          | Some ({ kind = Fresh; _ } as job) -> Some job
          | _ -> None)
        (List.init (max 0 (min 81 (i - 19))) (fun k -> i - 20 - k))
    in
    let fresh kind =
      make_job ~kind ~kernel:(next_kernel kind) ~seed:(fresh_seed ()) ~source:None
    in
    let job =
      match deck.(i mod Array.length deck) with
      | Cold ->
          let b = Kernels.Registry.find (next_kernel Cold) in
          let text = Fmt.str "%s\n// request %d.%d\n" b.source window i in
          make_job ~kind:Cold ~kernel:b.name ~seed:1 ~source:(Some text)
      | Repeat when earlier <> [] ->
          let j = List.nth earlier (Random.State.int rng (List.length earlier)) in
          { j with kind = Repeat }
      | Repeat | Fresh -> fresh Fresh
      | Sanitized -> fresh Sanitized
    in
    jobs.(i) <- Some job
  done;
  Array.map Option.get jobs

(** One finished request. *)
type result = {
  job : job;
  due : float;
  sent : float;
  done_ : float;
  outcome : Http_client.outcome;
  slot : int;
}

(** Drive [jobs] open-loop: job [i] is due at [t0 + i / rate]; a due
    job waits only for a free connection slot. *)
let drive ~rate ~port jobs =
  let n = Array.length jobs in
  let t0 = Unix.gettimeofday () +. 0.02 in
  let due i = t0 +. (float_of_int i /. rate) in
  let slots = Array.make connections None in
  let results = ref [] in
  let next = ref 0 and finished = ref 0 in
  while !finished < n do
    let now = Unix.gettimeofday () in
    Array.iteri
      (fun s slot ->
        if Option.is_none slot && !next < n && due !next <= now then begin
          let i = !next in
          incr next;
          let deadline = now +. timeout_s in
          match
            Http_client.start ~port ~deadline ~meth:"POST" ~path:"/v1/submit"
              jobs.(i).body
          with
          | Ok c -> slots.(s) <- Some (i, now, c)
          | Error o ->
              let res =
                { job = jobs.(i); due = due i; sent = now; done_ = now;
                  outcome = o; slot = s }
              in
              results := res :: !results;
              incr finished
        end)
      slots;
    let busy = Array.to_list slots |> List.filter_map Fun.id in
    let free = Array.exists Option.is_none slots in
    let wait =
      if !next < n && free then Float.max 0.0 (Float.min 0.05 (due !next -. now))
      else 0.05
    in
    let rd = List.map (fun (_, _, c) -> c.Http_client.fd) busy in
    let wr =
      List.filter_map
        (fun (_, _, c) ->
          if Http_client.wants_write c then Some c.Http_client.fd else None)
        busy
    in
    let r, w, _ =
      if rd = [] then begin
        if wait > 0.0 then Unix.sleepf wait;
        ([], [], [])
      end
      else
        try Unix.select rd wr [] wait
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let now = Unix.gettimeofday () in
    Array.iteri
      (fun s slot ->
        match slot with
        | None -> ()
        | Some (i, sent, c) -> (
            match
              Http_client.step c
                ~readable:(List.mem c.Http_client.fd r)
                ~writable:(List.mem c.Http_client.fd w)
                ~now
            with
            | None -> ()
            | Some o ->
                slots.(s) <- None;
                let res =
                  { job = jobs.(i); due = due i; sent; done_ = now;
                    outcome = o; slot = s }
                in
                results := res :: !results;
                incr finished))
      slots
  done;
  (t0, List.rev !results)

(** Local reference runs the gate compares serve answers with, keyed by
    job: kernel jobs simulate the kernel image on the job's seed; cold
    jobs compile the exact source sent and simulate it on zeroed
    memory, as the daemon does. *)
type checker = {
  images : (string * (Kernels.Registry.bench * Sim.Engine.image)) list;
  memo : (string, (Gate.sim_counts, string) Stdlib.result) Hashtbl.t;
}

let key job =
  match job.source with
  | Some text -> text
  | None -> Fmt.str "%s/%d" job.kernel job.seed

let reference_run ck job =
  let b, image = List.assoc job.kernel ck.images in
  match job.source with
  | None -> (Layers.simulate b image ~seed:job.seed).Layers.verdict
  | Some text ->
      let c = Layers.compile text in
      ignore (Layers.crush c);
      let image = Layers.image c.graph in
      let memory = Sim.Memory.of_graph (Sim.Engine.image_graph image) in
      let expected = Hashtbl.create 4 in
      List.iter
        (fun (name, size) -> Hashtbl.replace expected name (Array.make size 0.0))
        b.arrays;
      b.reference expected;
      Gate.check_run b expected
        (Sim.Engine.run_image ~max_cycles:Layers.max_cycles ~memory image)

(** Run the reference for every job not yet memoized, split over
    {!connections} domains: verification happens after the window, and
    sharing it out keeps the serve run short. *)
let prepare ck jobs =
  let todo = Hashtbl.create 64 in
  List.iter
    (fun job ->
      let k = key job in
      if not (Hashtbl.mem ck.memo k) then Hashtbl.replace todo k job)
    jobs;
  let todo = Hashtbl.fold (fun k job acc -> (k, job) :: acc) todo [] in
  let share d = List.filteri (fun i _ -> i mod connections = d) todo in
  let run l = List.map (fun (k, job) -> (k, reference_run ck job)) l in
  let others =
    List.init (connections - 1) (fun d -> Domain.spawn (fun () -> run (share (d + 1))))
  in
  let mine = run (share 0) in
  List.iter
    (fun (k, v) -> Hashtbl.replace ck.memo k v)
    (mine @ List.concat_map Domain.join others)

let expected ck job = Hashtbl.find ck.memo (key job)

let stats ~port =
  match Http_client.exchange ~port ~meth:"GET" ~path:"/v1/stats" "" with
  | Http_client.Response (200, body) -> J.parse body
  | _ -> Error "GET /v1/stats failed"

let stat j path =
  Option.value ~default:0 (Gate.int_field path j)

(** Spawn and warm a daemon: one worker-tier job per kernel (the first
    sanitized), then wait for the in-process image cache to hold every
    kernel, so fresh-seed jobs take the batch tier. *)
let warm_daemon ~exe ~dir ~rep =
  let journal = Filename.concat dir (Fmt.str "serve-%d-%d.jsonl" (Unix.getpid ()) rep) in
  let log = Filename.concat dir (Fmt.str "serve-%d-%d.log" (Unix.getpid ()) rep) in
  match Daemon.spawn ~exe ~journal ~log with
  | Error e -> failwith e
  | Ok d ->
      List.iteri
        (fun i kernel ->
          let body =
            body_of ~kernel ~seed:(1_000_000 + i) ~sanitize:(i = 0) ~source:None
          in
          match
            Http_client.exchange ~port:d.Daemon.port ~meth:"POST"
              ~path:"/v1/submit" body
          with
          | Http_client.Response (200, _) -> ()
          | _ -> failwith ("serve warm-up failed on " ^ kernel))
        kernels;
      let t_end = Unix.gettimeofday () +. 30.0 in
      let rec wait () =
        match stats ~port:d.Daemon.port with
        | Ok j when stat j [ "image_cache"; "entries" ] >= List.length kernels -> ()
        | _ when Unix.gettimeofday () > t_end ->
            failwith "serve warm-up: image cache never filled"
        | _ ->
            Unix.sleepf 0.02;
            wait ()
      in
      wait ();
      d

(** Count the drain's leftovers as failed operations.  A clean drain's
    journal and log are deleted; a dirty one's are kept for diagnosis. *)
let audit_drain r d =
  let dr = Daemon.stop d in
  Fmt.pr "serve drain: exit %d conns_left=%d workers_alive=%d leaked_fds=%d@."
    dr.exit_code dr.conns_left dr.workers_alive dr.leaked_fds;
  if dr.exit_code <> 0 then Report.fail r (Fmt.str "daemon exit %d" dr.exit_code);
  for _ = 1 to max 0 dr.conns_left do Report.fail r "connection left at drain" done;
  for _ = 1 to max 0 dr.workers_alive do Report.fail r "worker survived drain" done;
  for _ = 1 to max 0 dr.leaked_fds do Report.fail r "daemon leaked an fd" done;
  if dr.conns_left < 0 then Report.fail r "no drain report";
  if dr = { exit_code = 0; conns_left = 0; workers_alive = 0; leaked_fds = 0 }
  then Daemon.remove_files d

(** A request after the gate: whether it passed, and which path served
    it — ["cached"] (result-cache hit), ["batch"] or ["worker"] (the
    tier the response names), or ["failed"]. *)
type verdict = { res : result; ok : bool; tier : string }

let tier_of = function
  | Http_client.Response (_, body) -> (
      match J.parse body with
      | Ok j when Gate.str_field [ "cache" ] j = Some "hit" -> "cached"
      | Ok j -> Option.value ~default:"failed" (Gate.str_field [ "tier" ] j)
      | Error _ -> "failed")
  | _ -> "failed"

(** Gate one response against the local run of its job. *)
let check ck res =
  match res.outcome with
  | Http_client.Response (st, body) when st >= 200 && st < 300 -> (
      match expected ck res.job with
      | Error e -> Error ("local reference run: " ^ e)
      | Ok expect -> Gate.check_serve_body ~expect body)
  | Http_client.Response (st, body) -> Error (Fmt.str "HTTP %d: %s" st body)
  | Http_client.Refused -> Error "connection refused"
  | Http_client.Timed_out -> Error "client timeout"
  | Http_client.Broken e -> Error ("broken exchange: " ^ e)

type window_stats = {
  verdicts : verdict list;
  stats_before : J.t;
  stats_after : J.t;
  journal_appends : int;
}

let pct_ms l p =
  if l = [] then 0.0 else Stats.percentile (Array.of_list l) p *. 1e3

let latency v = v.res.done_ -. v.res.due

(** One measured window of [seconds]; its latencies count failed
    requests as infinitely late. *)
let window r ck d rng ~rate ~window_no ~seconds =
  let n = max 1 (int_of_float (Float.round (rate *. seconds))) in
  let jobs = schedule rng ~window:window_no ~n in
  let port = d.Daemon.port in
  let stats_now () =
    match stats ~port with
    | Ok j -> j
    | Error e ->
        Report.fail r e;
        J.Null
  in
  let stats_before = stats_now () in
  let lines0 = Daemon.journal_lines d in
  let t0, results = drive ~rate ~port jobs in
  let stats_after = stats_now () in
  let journal_appends = Daemon.journal_lines d - lines0 in
  (* The gate's local runs are the benchmark's work, not the daemon's:
     untraced. *)
  let tracing = Spans.enabled () in
  Spans.disable ();
  prepare ck (List.map (fun res -> res.job) results);
  let verdicts =
    List.map
      (fun res ->
        Report.attempt r;
        match check ck res with
        | Ok () -> { res; ok = true; tier = tier_of res.outcome }
        | Error e ->
            Report.fail r e;
            { res; ok = false; tier = "failed" })
      results
  in
  if tracing then Spans.enable ();
  List.iteri
    (fun i v ->
      let req = i + 1 and lane = 2 + v.res.slot in
      let id =
        Spans.add ~req ~lane "serve.request" ~start:v.res.due ~stop:v.res.done_
      in
      let path =
        match v.tier with "worker" -> "exec.worker" | t -> "serve." ^ t
      in
      ignore
        (Spans.add ~parent:id ~req ~lane "serve.send_wait" ~start:v.res.due
           ~stop:v.res.sent);
      ignore
        (Spans.add ~parent:id ~req ~lane path ~start:v.res.sent ~stop:v.res.done_))
    verdicts;
  let good = List.filter (fun v -> v.ok && latency v <= limit_s) verdicts in
  let lat =
    List.map (fun v -> if v.ok then latency v else Float.infinity) verdicts
  in
  let last_done =
    List.fold_left (fun m v -> Float.max m v.res.done_) t0 verdicts
  in
  ( {
      Report.lat = Array.of_list lat;
      good = List.length good;
      elapsed = last_done -. t0;
      op_medians = [||];
    },
    { verdicts; stats_before; stats_after; journal_appends } )

let by_tier ws name =
  List.filter_map
    (fun v -> if v.tier = name then Some (latency v) else None)
    ws.verdicts

let report_window r ws (w : Report.window) ~rate ~trace =
  let delta path = stat ws.stats_after path - stat ws.stats_before path in
  let ratio h m =
    let h = delta h and m = delta m in
    if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
  in
  let count f = List.length (List.filter (fun v -> f v.res.outcome) ws.verdicts) in
  let refused = count (( = ) Http_client.Refused) in
  let timeouts = count (( = ) Http_client.Timed_out) in
  let http_429 =
    count (function Http_client.Response (429, _) -> true | _ -> false)
  in
  let late = List.map (fun v -> v.res.sent -. v.res.due) ws.verdicts in
  let n = Array.length w.lat in
  let tail = Stats.tail_percentile ~n [ 99.0; 95.0; 90.0 ] in
  Fmt.pr "serve: %d requests at %.1f/s, %d good (<= %.0f ms), p50 %.2f ms, \
          p95 %.2f ms (%s)@."
    n rate w.good (limit_s *. 1e3) (Report.p50_ms w)
    (pct_ms (Array.to_list w.lat) 95.0)
    (match tail with
     | Some p -> Fmt.str "highest supported tail: p%g, %d beyond" p (Stats.beyond ~n p)
     | None -> "no tail percentile has 10 samples beyond it");
  List.iter
    (fun t ->
      let l = by_tier ws t in
      Fmt.pr "  tier %-7s %4d requests, p50 %.2f ms@." t (List.length l) (pct_ms l 50.0))
    [ "batch"; "worker"; "cached" ];
  Fmt.pr "  generator late: mean %.3f ms, max %.3f ms; refused %d, timeouts %d, \
          429s %d@."
    (Stats.mean (Array.of_list late) *. 1e3)
    (List.fold_left Float.max 0.0 late *. 1e3)
    refused timeouts http_429;
  if trace then begin
    Report.set r "serve.req_p95_ms" (pct_ms (Array.to_list w.lat) 95.0);
    Report.set r "serve.batch_p50_ms" (pct_ms (by_tier ws "batch") 50.0);
    Report.set r "serve.worker_p50_ms" (pct_ms (by_tier ws "worker") 50.0);
    Report.set r "serve.cached_p50_ms" (pct_ms (by_tier ws "cached") 50.0);
    Report.set r "serve.result_cache_hit_ratio"
      (ratio [ "cache"; "hits" ] [ "cache"; "misses" ]);
    Report.set r "serve.image_cache_hit_ratio"
      (ratio [ "image_cache"; "hits" ] [ "image_cache"; "misses" ]);
    Report.set r "serve.batch_runs" (float_of_int (delta [ "batch"; "runs" ]));
    Report.set r "serve.spills" (float_of_int (delta [ "batch"; "spills" ]));
    Report.set r "serve.shed" (float_of_int (delta [ "shed" ]));
    Report.set r "serve.gen_late_ms" (Stats.mean (Array.of_list late) *. 1e3);
    Report.set r "serve.refused" (float_of_int refused);
    Report.set r "serve.timeouts" (float_of_int timeouts);
    Report.set r "serve.http_429" (float_of_int http_429);
    Report.set r "exec.worker_respawns" (float_of_int (delta [ "workers"; "respawns" ]));
    Report.set r "exec.journal_appends" (float_of_int ws.journal_appends)
  end

let checker () =
  {
    images =
      List.map
        (fun k ->
          let b = Kernels.Registry.find k in
          (k, (b, Layers.crush_image b)))
        kernels;
    memo = Hashtbl.create 256;
  }

let run r ~exe ~dir ~seed ~seconds ~trace =
  let ck = checker () in
  let rng = Random.State.make [| seed; 0x5e |] in
  if trace then Spans.enable ();
  let rep = ref 0 in
  let d =
    Report.setup_median r
      ~teardown:(audit_drain r)
      (fun () ->
        incr rep;
        warm_daemon ~exe ~dir ~rep:!rep)
  in
  let window_no = ref 0 in
  ignore
    (Report.measure r ~seconds ~trace (fun seconds ->
         incr window_no;
         let w, ws = window r ck d rng ~rate ~window_no:!window_no ~seconds in
         report_window r ws w ~rate ~trace:(Spans.enabled ());
         w));
  audit_drain r d

(** Latency at a ladder of offered rates, to place {!rate}: one warm
    daemon, one window of [seconds] per rate. *)
let find_rate r ~exe ~dir ~seed ~seconds rates =
  let ck = checker () in
  let rng = Random.State.make [| seed; 0x5e |] in
  let d = warm_daemon ~exe ~dir ~rep:0 in
  List.iteri
    (fun i rate ->
      let w, ws = window r ck d rng ~rate ~window_no:(i + 1) ~seconds in
      report_window r ws w ~rate ~trace:false;
      Fmt.pr "  rate %.1f/s: goodput %.2f/s@." rate (Report.ops_per_s w))
    rates;
  audit_drain r d
