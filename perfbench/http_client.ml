(** Non-blocking HTTP/1.1 exchanges for the serve load generator: one
    request per connection (the daemon closes after each response),
    driven by the caller's [select] loop so one thread can keep several
    requests in flight. *)

type outcome =
  | Response of int * string  (** status, body *)
  | Refused                   (** connection refused *)
  | Timed_out                 (** no complete response by the deadline *)
  | Broken of string          (** reset, malformed or truncated reply *)

type phase = Connecting | Sending | Receiving

type t = {
  fd : Unix.file_descr;
  request : string;
  mutable sent : int;
  mutable phase : phase;
  buf : Buffer.t;
  deadline : float;
}

let request_text ~meth ~path body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
     Content-Length: %d\r\n\r\n%s"
    meth path (String.length body) body

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(** Open a connection and queue the request.  [Error] is immediate
    refusal. *)
let start ~port ~deadline ~meth ~path body =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  let t =
    {
      fd;
      request = request_text ~meth ~path body;
      sent = 0;
      phase = Connecting;
      buf = Buffer.create 1024;
      deadline;
    }
  in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
      t.phase <- Sending;
      Ok t
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN), _, _) -> Ok t
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (if e = Unix.ECONNREFUSED then Refused else Broken (Unix.error_message e))

let wants_write t = t.phase <> Receiving

(** Parse a complete reply: [Some] once the body reaches its
    [Content-Length] (or at EOF), [None] while more bytes are due. *)
let parse ~eof s =
  let find_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  match find_sub s "\r\n\r\n" with
  | None -> if eof then Some (Broken "eof in headers") else None
  | Some he -> (
      let head = String.sub s 0 he in
      let body = String.sub s (he + 4) (String.length s - he - 4) in
      let lines = String.split_on_char '\n' head in
      let status =
        match String.split_on_char ' ' (List.hd lines) with
        | _ :: code :: _ -> int_of_string_opt code
        | _ -> None
      in
      let length =
        List.find_map
          (fun l ->
            match String.index_opt l ':' with
            | Some i
              when String.lowercase_ascii (String.trim (String.sub l 0 i))
                   = "content-length" ->
                int_of_string_opt
                  (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
            | _ -> None)
          (List.tl lines)
      in
      match (status, length) with
      | None, _ -> Some (Broken "bad status line")
      | Some st, Some n when String.length body >= n ->
          Some (Response (st, String.sub body 0 n))
      | Some st, None when eof -> Some (Response (st, body))
      | Some _, _ -> if eof then Some (Broken "truncated body") else None)

(** Advance after [select]; [Some] when the exchange is over (the
    connection is then closed). *)
let step t ~readable ~writable ~now =
  let finish o =
    close t;
    Some o
  in
  let io f =
    match f () with
    | v -> v
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        None
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> finish Refused
    | exception Unix.Unix_error (e, _, _) -> finish (Broken (Unix.error_message e))
  in
  if now >= t.deadline then finish Timed_out
  else
    match t.phase with
    | Connecting when writable ->
        io (fun () ->
            match Unix.getsockopt_error t.fd with
            | None ->
                t.phase <- Sending;
                None
            | Some Unix.ECONNREFUSED -> finish Refused
            | Some e -> finish (Broken (Unix.error_message e)))
    | Sending when writable ->
        io (fun () ->
            let n =
              Unix.write_substring t.fd t.request t.sent
                (String.length t.request - t.sent)
            in
            t.sent <- t.sent + n;
            if t.sent = String.length t.request then t.phase <- Receiving;
            None)
    | Receiving when readable ->
        io (fun () ->
            let chunk = Bytes.create 8192 in
            let n = Unix.read t.fd chunk 0 (Bytes.length chunk) in
            Buffer.add_subbytes t.buf chunk 0 n;
            match parse ~eof:(n = 0) (Buffer.contents t.buf) with
            | Some o -> finish o
            | None -> None)
    | _ -> None

(** One blocking exchange (set-up, stats polls), given 10 s. *)
let exchange ~port ~meth ~path body =
  let deadline = Unix.gettimeofday () +. 10.0 in
  match start ~port ~deadline ~meth ~path body with
  | Error o -> o
  | Ok t ->
      let rec loop () =
        let w = if wants_write t then [ t.fd ] else [] in
        let r, w, _ =
          try Unix.select [ t.fd ] w [] 0.05
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        match
          step t ~readable:(r <> []) ~writable:(w <> [])
            ~now:(Unix.gettimeofday ())
        with
        | Some o -> o
        | None -> loop ()
      in
      loop ()
