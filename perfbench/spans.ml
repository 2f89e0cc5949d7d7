(** In-memory layer spans, recorded by the benchmark around its calls
    into each library (never from inside the program), written out as a
    Chrome trace at exit.

    Span names are ["<layer>.<what>"]; the layer is the part before the
    first dot and is what self times are summed by.  Recording is off
    unless {!enable} was called, and then costs one list cons per span;
    end-to-end metrics are always measured with it off. *)

type span = {
  id : int;
  name : string;
  start : float;  (** Unix time, seconds *)
  stop : float;
  parent : int;   (** enclosing span id; 0 at the root *)
  req : int;      (** request id on the serve workload; 0 elsewhere *)
  lane : int;     (** trace thread the span is drawn on *)
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 1
let stack : int list ref = ref []

let enable () = on := true
let disable () = on := false
let enabled () = !on

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(** Record a span whose bounds the caller measured itself — for work
    that does not nest in call order, such as requests overlapping on
    two connections.  Returns the span id (0 when recording is off). *)
let add ?(parent = 0) ?(req = 0) ?(lane = 1) name ~start ~stop =
  if not !on then 0
  else begin
    let id = fresh_id () in
    recorded := { id; name; start; stop; parent; req; lane } :: !recorded;
    id
  end

(** [with_span name f] runs [f] inside a span nested under the
    innermost open one. *)
let with_span name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        stack := List.tl !stack;
        recorded :=
          { id; name; start; stop; parent; req = 0; lane = 1 } :: !recorded)
      f
  end

let spans () = List.rev !recorded

(** Total length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(** Self time of every span: its duration minus the part of it that its
    children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(** Self seconds summed per layer, largest first. *)
let self_by_layer spans =
  let t = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      let l = layer_of s.name in
      Hashtbl.replace t l
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt t l)))
    (self_times spans);
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) t []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

(** Durations (seconds) of the spans named [name]. *)
let durations spans name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    spans

(** Chrome trace-event JSON (complete ["X"] events, microseconds from
    the first span), loadable by Perfetto and chrome://tracing. *)
let to_chrome_json spans =
  let module J = Exec.Jsonl in
  let t0 =
    List.fold_left (fun m s -> Float.min m s.start) Float.infinity spans
  in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("cat", J.String (layer_of s.name));
        ("ph", J.String "X");
        ("ts", J.Float ((s.start -. t0) *. 1e6));
        ("dur", J.Float ((s.stop -. s.start) *. 1e6));
        ("pid", J.Int 1);
        ("tid", J.Int s.lane);
        ( "args",
          J.Obj
            [ ("id", J.Int s.id); ("parent", J.Int s.parent); ("req", J.Int s.req) ]
        );
      ]
  in
  J.to_string
    (J.Obj
       [
         ("traceEvents", J.List (List.map event spans));
         ("displayTimeUnit", J.String "ms");
       ])
