(** The benchmark's correctness gate.  Every simulation is checked
    against the kernel's hand-written software reference, and every
    serve verdict against a local run of the same job, so a wrong but
    fast program fails its operations instead of posting a number. *)

module J = Exec.Jsonl

(** What a verified simulation produced: the exact counts a change that
    only speeds the simulator up must leave identical. *)
type sim_counts = { cycles : int; transfers : int }

(* The harness's tolerance: relative 1e-6, absolute below magnitude 1. *)
let close a b =
  let d = Float.abs (a -. b) in
  d <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(** First array element where simulated memory departs from the
    reference. *)
let check_memory (bench : Kernels.Registry.bench)
    (expected : Kernels.Reference.arrays) memory =
  let rec arrays = function
    | [] -> Ok ()
    | (name, _) :: rest -> (
        let want = Kernels.Reference.get expected name in
        let got = Sim.Memory.get_floats memory name in
        let n = Array.length want in
        let rec elems i =
          if i = n then None
          else if i >= Array.length got || not (close want.(i) got.(i)) then
            Some i
          else elems (i + 1)
        in
        match elems 0 with
        | None -> arrays rest
        | Some i ->
            Error
              (Fmt.str "%s: %s[%d] = %s, reference %g" bench.name name i
                 (if i < Array.length got then Fmt.str "%g" got.(i)
                  else "missing")
                 want.(i)))
  in
  arrays bench.arrays

(** A finished simulation is correct when it completed (no deadlock, no
    fuel exhaustion) and every array matches the reference. *)
let check_run bench expected (out : Sim.Engine.outcome) =
  let stats = out.Sim.Engine.stats in
  if not (Sim.Engine.is_completed out) then
    Error
      (Fmt.str "%s: %a" bench.Kernels.Registry.name Sim.Engine.pp_status
         stats.Sim.Engine.status)
  else
    Result.map
      (fun () ->
        { cycles = stats.Sim.Engine.cycles; transfers = stats.Sim.Engine.transfers })
      (check_memory bench expected (Sim.Engine.memory_of out))

let field path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

let int_field path j = Option.bind (field path j) J.to_int
let str_field path j = Option.bind (field path j) J.to_str

(** Check one 2xx serve body against the local run of the same job.
    Kernel jobs answer a verdict that must say [correct] with the local
    cycle count; source jobs answer run statistics that must match the
    local cycles and transfers. *)
let check_serve_body ~(expect : sim_counts) body =
  let ( let* ) = Result.bind in
  let need what = function Some v -> Ok v | None -> Error ("no " ^ what) in
  let* j = J.parse body in
  let* code = need "code" (str_field [ "code" ] j) in
  let* () = if code = "ok" then Ok () else Error ("code " ^ code) in
  let* kind = need "result.kind" (str_field [ "result"; "kind" ] j) in
  let* status = need "result.status" (str_field [ "result"; "status" ] j) in
  let* () =
    if status = "completed" then Ok () else Error ("result.status " ^ status)
  in
  let* cycles = need "result.cycles" (int_field [ "result"; "cycles" ] j) in
  let* () =
    if cycles = expect.cycles then Ok ()
    else Error (Fmt.str "cycles %d, local run %d" cycles expect.cycles)
  in
  match kind with
  | "verdict" ->
      if Option.bind (field [ "result"; "correct" ] j) J.to_bool = Some true
      then Ok ()
      else Error "verdict not functionally correct"
  | "stats" ->
      let* transfers =
        need "result.transfers" (int_field [ "result"; "transfers" ] j)
      in
      if transfers = expect.transfers then Ok ()
      else
        Error (Fmt.str "transfers %d, local run %d" transfers expect.transfers)
  | k -> Error ("result.kind " ^ k)
