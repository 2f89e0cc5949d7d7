(** CRUSH: the complete credit-based sharing pass.

    Pipeline: analyze the performance-critical CFCs (II, occupancies,
    SCCs) once; infer sharing groups (Algorithm 1); order each group by
    access priority (Algorithm 2); allocate credits (Equation 3); rewrite
    the circuit with credit-based sharing wrappers.  The heuristics use
    only scalable graph analyses — no per-candidate re-evaluation of the
    performance model — which is where the paper's ~90% optimization-time
    reduction over the In-order baseline comes from. *)

open Dataflow

type shared_group = {
  op : Types.opcode;
  members : int list;  (** original unit ids, highest priority first *)
  credits : int list;
  shared_unit : int;   (** id of the shared unit after rewriting *)
}

type report = {
  groups : shared_group list;
  singles : int;       (** candidate operations left unshared *)
  opt_time_s : float;  (** wall-clock optimization time *)
}

(** Apply CRUSH to [graph] in place.  [critical_loops] identifies the
    performance-critical CFCs (the innermost loop of each nest).
    [shareable] restricts the candidate opcodes (default: floating-point
    units).  The remaining knobs exist for the ablation studies only:
    [enforce_r3] disables rule R3, [reverse_priority] inverts the access
    priority of every group (paper Figure 4 shows why this hurts), and
    [credit_fn] overrides the credit allocation of Equation 3. *)
let crush ?shareable ?enforce_r3 ?(reverse_priority = false) ?credit_fn graph
    ~critical_loops =
  let t0 = Unix.gettimeofday () in
  let ctx = Context.make graph ~critical_loops in
  let groups = Groups.infer ?shareable ?enforce_r3 ctx in
  let to_share = Groups.sharing_groups groups in
  let credit_of =
    match credit_fn with
    | Some f -> f ctx
    | None -> Context.credits_for ctx
  in
  let shared =
    List.map
      (fun (g : Groups.group) ->
        let members = Priority.infer ctx g.ops in
        let members = if reverse_priority then List.rev members else members in
        let credits = List.map credit_of members in
        let op = Option.get (Context.opcode_of ctx (List.hd members)) in
        let policy = Types.Priority (List.init (List.length members) Fun.id) in
        let shared_unit = Wrapper.apply graph { ops = members; credits; policy; ob_slots = None } in
        { op; members; credits; shared_unit })
      to_share
  in
  Validate.check_exn graph;
  {
    groups = shared;
    singles = List.length groups - List.length to_share;
    opt_time_s = Unix.gettimeofday () -. t0;
  }

let pp_report ppf r =
  let pp_group ppf g =
    Fmt.pf ppf "%s x%d (credits %a)"
      (Types.string_of_opcode g.op)
      (List.length g.members)
      Fmt.(list ~sep:(any ",") int)
      g.credits
  in
  Fmt.pf ppf "@[<v>%d sharing groups (%d ops unshared), %.3fs@,%a@]"
    (List.length r.groups) r.singles r.opt_time_s
    (Fmt.list ~sep:Fmt.cut pp_group)
    r.groups
