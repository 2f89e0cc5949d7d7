(* The benchmark's own tests: percentile selection and its sample-count
   rule, self time over nested spans, the correctness gate against
   planted wrong results, and agreement between the metric list and
   BENCHMARK.json.  Run with: dune build @perfbench/selftest *)

open Perfbench
module J = Exec.Jsonl

let percentiles () =
  let xs = Array.init 200 (fun i -> float_of_int (200 - i)) in
  Alcotest.(check (float 0.0)) "median" 100.0 (Stats.median xs);
  Alcotest.(check (float 0.0)) "p95" 190.0 (Stats.percentile xs 95.0);
  Alcotest.(check (float 0.0)) "p100" 200.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 0.0)) "p0 is the minimum" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 0.0)) "single sample" 7.0 (Stats.percentile [| 7.0 |] 95.0)

let sample_count_rule () =
  let check n want =
    Alcotest.(check (option (float 0.0)))
      (Fmt.str "tail of %d samples" n) want
      (Stats.tail_percentile ~n [ 99.0; 95.0; 90.0 ])
  in
  (* p95 of 200 samples leaves exactly 10 beyond it; 199 leave 9. *)
  Alcotest.(check int) "200 -> 10 beyond p95" 10 (Stats.beyond ~n:200 95.0);
  Alcotest.(check bool) "p95 of 200" true (Stats.supported ~n:200 95.0);
  Alcotest.(check bool) "p95 of 199" false (Stats.supported ~n:199 95.0);
  check 1000 (Some 99.0);
  check 999 (Some 95.0);
  check 200 (Some 95.0);
  check 199 (Some 90.0);
  check 100 (Some 90.0);
  check 99 None;
  check 0 None

let span ~id ~parent ?(name = "x.y") start stop =
  { Spans.id; name; start; stop; parent; req = 0; lane = 1 }

let self_time () =
  (* root [0,10]: children [1,3] and [2,5] overlap, [7,8] stands apart,
     [9.5,13] sticks out past the root's end; [2,5] has a child
     [2.5,3]. *)
  let spans =
    [
      span ~id:1 ~parent:0 ~name:"compile.flow" 0.0 10.0;
      span ~id:2 ~parent:1 ~name:"minic.compile" 1.0 3.0;
      span ~id:3 ~parent:1 ~name:"crush.share" 2.0 5.0;
      span ~id:4 ~parent:1 ~name:"minic.compile" 7.0 8.0;
      span ~id:5 ~parent:3 ~name:"analysis.qor" 2.5 3.0;
      span ~id:6 ~parent:1 ~name:"sim.image" 9.5 13.0;
    ]
  in
  let self = Spans.self_times spans in
  let of_id id = snd (List.find (fun (s, _) -> s.Spans.id = id) self) in
  Alcotest.(check (float 1e-9)) "root minus union of children" 4.5 (of_id 1);
  Alcotest.(check (float 1e-9)) "nested child" 2.5 (of_id 3);
  Alcotest.(check (float 1e-9)) "leaf" 2.0 (of_id 2);
  let layers = Spans.self_by_layer spans in
  Alcotest.(check (float 1e-9)) "minic layer" 3.0 (List.assoc "minic" layers);
  Alcotest.(check (float 1e-9)) "compile layer" 4.5 (List.assoc "compile" layers);
  Alcotest.(check (float 1e-9))
    "a child outside its parent keeps its own time" 3.5
    (List.assoc "sim" layers)

let gsum = Kernels.Registry.find "gsum"

let simulate () =
  let image = Layers.crush_image gsum in
  let memory, expected = Layers.inputs gsum image ~seed:42 in
  let out = Sim.Engine.run_image ~memory image in
  (expected, out)

let gate_accepts_and_rejects () =
  let expected, out = simulate () in
  (match Gate.check_run gsum expected out with
  | Ok c -> Alcotest.(check int) "gsum cycles, seed 42" 1914 c.Gate.cycles
  | Error e -> Alcotest.fail e);
  (* Plant a wrong value in the simulated memory. *)
  let name, _ = List.hd gsum.arrays in
  let mem = Sim.Engine.memory_of out in
  let got = Sim.Memory.get_floats mem name in
  got.(0) <- got.(0) +. 1.0;
  Sim.Memory.set_floats mem name got;
  match Gate.check_run gsum expected out with
  | Ok _ -> Alcotest.fail "a planted wrong result passed the gate"
  | Error _ -> ()

let body ?(correct = true) ?(cycles = 1914) kind =
  J.to_string
    (J.Obj
       [
         ("code", J.String "ok");
         ("cache", J.String "miss");
         ( "result",
           J.Obj
             [
               ("kind", J.String kind);
               ("status", J.String "completed");
               ("cycles", J.Int cycles);
               ("transfers", J.Int 500);
               ("correct", J.Bool correct);
             ] );
       ])

let serve_gate () =
  let expect = { Gate.cycles = 1914; transfers = 500 } in
  let ok b = Gate.check_serve_body ~expect b = Ok () in
  Alcotest.(check bool) "matching verdict" true (ok (body "verdict"));
  Alcotest.(check bool) "matching stats" true (ok (body "stats"));
  Alcotest.(check bool) "planted cycle count" false (ok (body ~cycles:1915 "verdict"));
  Alcotest.(check bool) "wrong verdict" false (ok (body ~correct:false "verdict"));
  Alcotest.(check bool)
    "planted transfers" false
    (Gate.check_serve_body ~expect:{ expect with transfers = 501 } (body "stats")
    = Ok ());
  Alcotest.(check bool) "not JSON" false (ok "{\"code\":")

let smoke_cycles () =
  (* The 22-simulation smoke set of BENCH_sim.json: every kernel,
     CRUSH-shared, input seeds 42 and 43. *)
  let r = Report.create () in
  let totals = Wl_sim.fixed_seeds r [ 42; 43 ] in
  Alcotest.(check int) "no failures" 0 r.Report.failed;
  Alcotest.(check int)
    "total cycles" 500_748
    (List.fold_left (fun a (_, (c, _)) -> a + c) 0 totals)

let benchmark_json () =
  let ic = open_in "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = Result.get_ok (J.parse text) in
  let listed key =
    Option.get (Option.bind (J.member key j) J.to_list)
    |> List.map (fun m ->
           ( Option.get (Option.bind (J.member "name" m) J.to_str),
             Option.get (Option.bind (J.member "unit" m) J.to_str) ))
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Metrics.end_to_end (listed "end_to_end");
  Alcotest.check pairs "per_layer" Metrics.per_layer (listed "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick percentiles;
          Alcotest.test_case "sample-count rule" `Quick sample_count_rule;
        ] );
      ("spans", [ Alcotest.test_case "self time over nested spans" `Quick self_time ]);
      ( "gate",
        [
          Alcotest.test_case "planted wrong result" `Quick gate_accepts_and_rejects;
          Alcotest.test_case "serve verdict checks" `Quick serve_gate;
          Alcotest.test_case "smoke set cycles" `Slow smoke_cycles;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "agree with BENCHMARK.json" `Quick benchmark_json;
        ] );
    ]
