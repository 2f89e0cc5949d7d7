(** Persistent worker pool over {!Exec.Wire}; see the interface. *)

module Wire = Exec.Wire
module Outcome = Exec.Outcome

type proc = {
  pid : int;
  oc : out_channel;           (* job frames -> worker stdin *)
  from_fd : Unix.file_descr;  (* worker stdout -> us *)
  dec : Wire.decoder;
}

type slot = { id : int; mutable proc : proc option; mutable broken : bool }

type t = {
  binary : string;
  argv_tail : string list;
  heartbeat_s : float;
  grace_s : float;
  slots : slot array;
  free : int Queue.t;
  m : Mutex.t;
  mutable closing : bool;
  mutable n_spawns : int;
  mutable n_respawns : int;
  mutable n_lost : int;
  mutable n_killed : int;
  mutable n_jobs : int;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let create ~binary ~argv_tail ~heartbeat_s ~grace_s ~n =
  if n < 1 then invalid_arg "Workers.create: n < 1";
  (* A job written to a worker that has just died must fail with EPIPE,
     which [run_job] classifies as a loss, not kill this process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t =
    {
      binary;
      argv_tail;
      heartbeat_s;
      grace_s;
      slots = Array.init n (fun id -> { id; proc = None; broken = false });
      free = Queue.create ();
      m = Mutex.create ();
      closing = false;
      n_spawns = 0;
      n_respawns = 0;
      n_lost = 0;
      n_killed = 0;
      n_jobs = 0;
    }
  in
  Array.iter (fun s -> Queue.push s.id t.free) t.slots;
  t

(* ------------------------------------------------------------------ *)
(* Process lifecycle *)

let spawn t (s : slot) =
  (* Pool-side pipe ends are close-on-exec so worker B never inherits
     worker A's pipes: A's EOF arrives the moment A dies. *)
  let child_in, to_w = Unix.pipe ~cloexec:true () in
  let from_w, child_out = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (t.binary :: t.argv_tail) in
  let pid = Unix.create_process t.binary argv child_in child_out Unix.stderr in
  Unix.close child_in;
  Unix.close child_out;
  s.proc <-
    Some
      {
        pid;
        oc = Unix.out_channel_of_descr to_w;
        from_fd = from_w;
        dec = Wire.create_decoder ();
      };
  s.broken <- false;
  locked t (fun () ->
      t.n_spawns <- t.n_spawns + 1;
      if t.n_spawns > Array.length t.slots then t.n_respawns <- t.n_respawns + 1)

let reap_status pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> Fmt.str "exit %d" c
  | _, Unix.WSIGNALED sg -> Fmt.str "signal %d" sg
  | _, Unix.WSTOPPED sg -> Fmt.str "stopped %d" sg
  | exception Unix.Unix_error _ -> "already reaped"

let dispose (s : slot) =
  match s.proc with
  | None -> "no process"
  | Some p ->
      (* [close_out] flushes first and a flush to a dead worker raises
         EPIPE *before* the fd is released — [close_out_noerr] still
         closes it. *)
      close_out_noerr p.oc;
      (try Unix.close p.from_fd with Unix.Unix_error _ -> ());
      let reason = reap_status p.pid in
      s.proc <- None;
      reason

let kill_and_dispose (s : slot) =
  (match s.proc with
  | Some p -> ( try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ())
  | None -> ());
  dispose s

(** Live process for [s], spawning if needed.  [None] if spawn fails. *)
let ensure t (s : slot) =
  if s.broken then ignore (kill_and_dispose s);
  match s.proc with
  | Some p -> Some p
  | None -> ( match spawn t s with () -> s.proc | exception _ -> None)

(* ------------------------------------------------------------------ *)
(* Acquire / release *)

let acquire t ~deadline =
  (* Polling loop: stdlib [Condition] has no timed wait and every
     caller carries its own deadline; at serve concurrency a 2 ms poll
     is invisible next to a simulation. *)
  let rec go () =
    let got =
      locked t (fun () ->
          if t.closing then `Closing
          else
            match Queue.pop t.free with
            | id -> `Got id
            | exception Queue.Empty -> `Wait)
    in
    match got with
    | `Closing -> None
    | `Got id -> Some id
    | `Wait ->
        if Unix.gettimeofday () >= deadline then None
        else begin
          Unix.sleepf 0.002;
          go ()
        end
  in
  go ()

let release t id = locked t (fun () -> Queue.push id t.free)

(* ------------------------------------------------------------------ *)
(* Running one job *)

let lost t (s : slot) reason =
  locked t (fun () -> t.n_lost <- t.n_lost + 1);
  (* Respawn eagerly: the slot re-enters the free queue the moment the
     caller releases it, so the next job admitted to it must not pay
     spawn latency serially behind the loss.  A failed respawn leaves
     [proc = None]; the next [run_job]'s [ensure] retries. *)
  (try
     if (not (locked t (fun () -> t.closing))) && s.proc = None then spawn t s
   with _ -> ());
  (Outcome.Worker_lost { shard = s.id; reason }, 1)

let run_job t id ~key ~spec ~deadline =
  let s = t.slots.(id) in
  locked t (fun () -> t.n_jobs <- t.n_jobs + 1);
  match ensure t s with
  | None -> lost t s "spawn failed"
  | Some p -> (
      match Wire.write p.oc (Wire.Job { key; spec }) with
      | exception (Sys_error _ | Unix.Unix_error _) ->
          let reason = kill_and_dispose s in
          lost t s reason
      | () ->
          let started = Unix.gettimeofday () in
          let hard_deadline = deadline +. t.grace_s in
          let last_beat = ref started in
          let buf = Bytes.create 65536 in
          let preempt () =
            ignore (kill_and_dispose s);
            locked t (fun () -> t.n_killed <- t.n_killed + 1);
            ( Outcome.Worker_killed
                { shard = s.id; after_s = Unix.gettimeofday () -. started },
              1 )
          in
          let rec drain_frames () =
            (* Pop every complete frame before reading again. *)
            match Wire.next p.dec with
            | Some (Wire.Result { key = k; attempts; outcome }) when k = key
              -> (
                match Outcome.of_json (fun j -> Some j) outcome with
                | Some o -> `Done (o, attempts)
                | None ->
                    `Done
                      ( Outcome.Worker_crash
                          { exn = "undecodable worker outcome"; backtrace = "" },
                        attempts ))
            | Some (Wire.Heartbeat { key = k }) when k = key ->
                last_beat := Unix.gettimeofday ();
                drain_frames ()
            | Some (Wire.Hello _ | Wire.Heartbeat _ | Wire.Result _ | Wire.Job _
                   | Wire.Shutdown) ->
                drain_frames ()
            | None -> `More
            | exception Wire.Corrupt m -> `Corrupt m
          in
          let rec loop () =
            let now = Unix.gettimeofday () in
            if now >= hard_deadline then preempt ()
            else if t.heartbeat_s > 0.0 && now -. !last_beat >= t.heartbeat_s
            then preempt ()
            else begin
              let wait =
                Float.max 0.005
                  (Float.min 0.25 (hard_deadline -. now))
              in
              match Unix.select [ p.from_fd ] [] [] wait with
              | [], _, _ -> loop ()
              | _ -> (
                  match Exec.Fio.read p.from_fd buf 0 (Bytes.length buf) with
                  | 0 ->
                      (* Pipe EOF: the worker is gone (or wedged with
                         its stdout closed).  SIGKILL before reaping —
                         [dispose] alone would block in [waitpid] for as
                         long as a wedged-but-alive worker cares to
                         linger, keeping this slot borrowed far past the
                         deadline+grace window. *)
                      let reason = kill_and_dispose s in
                      lost t s reason
                  | k -> (
                      Wire.feed p.dec buf ~len:k;
                      match drain_frames () with
                      | `Done r -> r
                      | `More -> loop ()
                      | `Corrupt _ ->
                          ignore (kill_and_dispose s);
                          lost t s "corrupt frame")
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
                  | exception Unix.Unix_error _ ->
                      (* A broken pipe read is as final as EOF. *)
                      let reason = kill_and_dispose s in
                      lost t s reason)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
            end
          in
          loop ())

(* ------------------------------------------------------------------ *)
(* Introspection and drain *)

let pids t =
  Array.to_list t.slots
  |> List.filter_map (fun s -> Option.map (fun p -> p.pid) s.proc)

let stats t =
  locked t (fun () ->
      (t.n_spawns, t.n_respawns, t.n_lost, t.n_killed, t.n_jobs))

let shutdown t ~timeout_s =
  locked t (fun () -> t.closing <- true);
  let live =
    Array.to_list t.slots
    |> List.filter_map (fun s -> Option.map (fun p -> (s, p)) s.proc)
  in
  List.iter
    (fun (_, p) ->
      try Wire.write p.oc Wire.Shutdown
      with Sys_error _ | Unix.Unix_error _ -> ())
    live;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait_exit (p : proc) =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ ->
        if Unix.gettimeofday () >= deadline then false
        else begin
          Unix.sleepf 0.01;
          wait_exit p
        end
    | _ -> true
    | exception Unix.Unix_error _ -> true
  in
  let alive =
    List.fold_left
      (fun alive (s, p) ->
        let exited = wait_exit p in
        if not exited then ignore (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (* Close pipes and reap (SIGKILLed stragglers reap here too).
           [close_out_noerr], not [close_out]: the flush to a dead
           worker raises before the fd would be released. *)
        close_out_noerr p.oc;
        (try Unix.close p.from_fd with Unix.Unix_error _ -> ());
        (if not exited then ignore (reap_status p.pid));
        s.proc <- None;
        if exited then alive else alive + 1)
      0 live
  in
  alive
