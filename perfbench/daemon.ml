(** A private [crush serve] daemon for the serve workload: spawn, parse
    the listening line, SIGTERM and audit the drain. *)

type t = {
  pid : int;
  out : Unix.file_descr;  (** the daemon's stdout *)
  port : int;
  journal : string;
  log : string;
  mutable reaped : bool;
}

type drain = {
  exit_code : int;
  conns_left : int;
  workers_alive : int;
  leaked_fds : int;
}

(* Daemons not yet drained; killed at exit so a failing run never
   leaves one behind. *)
let live : t list ref = ref []

(** Read from [fd] until [stop] holds on what was read, EOF, or
    [timeout_s]. *)
let read_until fd ~timeout_s stop =
  let acc = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if stop (Buffer.contents acc) || Unix.gettimeofday () >= deadline then ()
    else
      match Unix.select [ fd ] [] [] 0.1 with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes acc chunk 0 n;
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents acc

let int_after s key =
  let k = key ^ "=" in
  let n = String.length s and m = String.length k in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = k then begin
      let j = ref (i + m) in
      while !j < n && (s.[!j] = '-' || (s.[!j] >= '0' && s.[!j] <= '9')) do
        incr j
      done;
      int_of_string_opt (String.sub s (i + m) (!j - i - m))
    end
    else find (i + 1)
  in
  find 0

(** Spawn [exe serve] on an ephemeral port with its request journal at
    [journal] and its stderr in [log]. *)
let spawn ~exe ~journal ~log =
  (try Sys.remove journal with Sys_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  (* Quotas far above the offered load: the workload measures serving,
     not the tenant buckets (their sheds are still counted). *)
  let argv =
    [|
      exe; "serve"; "--port"; "0"; "--workers"; "2"; "--journal"; journal;
      "--req-rate"; "10000"; "--fuel-rate"; "1e10";
    |]
  in
  let pid = Unix.create_process exe argv Unix.stdin w err in
  Unix.close w;
  Unix.close err;
  let line =
    read_until r ~timeout_s:30.0 (fun s -> String.contains s '\n')
  in
  let port =
    match String.index_opt line '\n' with
    | None -> None
    | Some i -> (
        let first = String.sub line 0 i in
        match String.rindex_opt first ':' with
        | None -> None
        | Some c ->
            let rest = String.sub first (c + 1) (String.length first - c - 1) in
            int_of_string_opt (List.hd (String.split_on_char ' ' rest)))
  in
  let t =
    {
      pid;
      out = r;
      port = Option.value ~default:0 port;
      journal;
      log;
      reaped = false;
    }
  in
  live := t :: !live;
  match port with
  | Some _ -> Ok t
  | None ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      Error (Fmt.str "daemon did not report a port: %S" line)

let reap t =
  if not t.reaped then begin
    t.reaped <- true;
    live := List.filter (fun d -> d != t) !live;
    (try Unix.close t.out with Unix.Unix_error _ -> ());
    match Unix.waitpid [] t.pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 128
    | exception Unix.Unix_error _ -> 128
  end
  else 128

(** SIGTERM and wait for the drain report. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let out =
    read_until t.out ~timeout_s:30.0 (fun s ->
        let n = String.length s in
        n > 0 && s.[n - 1] = '\n' && int_after s "leaked_fds" <> None)
  in
  let exit_code = reap t in
  let field k = Option.value ~default:(-1) (int_after out k) in
  {
    exit_code;
    conns_left = field "conns_left";
    workers_alive = field "workers_alive";
    leaked_fds = field "leaked_fds";
  }

let remove_files t =
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ t.journal; t.log ]

let journal_lines t =
  match open_in t.journal with
  | exception Sys_error _ -> 0
  | ic ->
      let rec count n =
        match input_line ic with _ -> count (n + 1) | exception End_of_file -> n
      in
      let n = count 0 in
      close_in ic;
      n

let () =
  at_exit (fun () ->
      List.iter
        (fun t ->
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap t))
        !live)
