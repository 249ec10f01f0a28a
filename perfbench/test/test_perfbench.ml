(* Tests for the benchmark's own logic: the tail-percentile rule, the
   simulated-seconds accounting, the result digest, the environment
   pinning and the trace reduction. *)

open Avis_core
open Perfbench

let check_float = Alcotest.(check (float 1e-9))

let samples n = List.init n (fun i -> float_of_int (i + 1))

let test_tail_full () =
  let t = Percentile.tail ~want:90 (samples 100) in
  Alcotest.(check int) "p90 qualifies at n=100" 90 t.Percentile.pct;
  Alcotest.(check int) "n" 100 t.Percentile.n;
  check_float "value" 90.0 t.Percentile.value

let test_tail_fallback () =
  let t = Percentile.tail ~want:90 (List.rev (samples 99)) in
  Alcotest.(check int) "ten beyond p89 at n=99" 89 t.Percentile.pct;
  check_float "value" 89.0 t.Percentile.value;
  let t = Percentile.tail ~want:90 (samples 40) in
  Alcotest.(check int) "ten beyond p75 at n=40" 75 t.Percentile.pct;
  let t = Percentile.tail ~want:90 (samples 12) in
  Alcotest.(check int) "median floor" 50 t.Percentile.pct;
  Alcotest.(check int) "n" 12 t.Percentile.n

let test_tail_beyond_count () =
  List.iter
    (fun n ->
      let xs = samples n in
      let t = Percentile.tail ~want:90 xs in
      let beyond = List.length (List.filter (fun x -> x > t.Percentile.value) xs) in
      if t.Percentile.pct > 50 && beyond < 10 then
        Alcotest.failf "n=%d: p%d has only %d samples beyond it" n t.Percentile.pct beyond;
      if t.Percentile.pct < 90 && n - Percentile.rank ~n (t.Percentile.pct + 1) >= 10 then
        Alcotest.failf "n=%d: p%d was not the highest qualifying" n t.Percentile.pct)
    (List.init 200 (fun i -> i + 1))

let run cost = Search.Run (Scenario.empty, cost)

let test_sim_account () =
  let a = Sim_account.create () in
  Sim_account.note_step a (run 0.0);
  Sim_account.note_progress a ~spent_s:10.0;
  (* A rejected candidate costs at least the floor; a priced Run its cost. *)
  Sim_account.note_step a (Search.Think 0.0);
  Sim_account.note_step a (run 0.5);
  Sim_account.note_progress a ~spent_s:(10.0 +. Budget.min_inference_s +. 0.5 +. 20.0);
  check_float "flight seconds" 180.0 (Sim_account.sim_seconds a ~speedup:6.0);
  (* Trailing inference before the final progress is not flight time. *)
  Sim_account.note_step a (Search.Think 3.0);
  Sim_account.note_progress a ~spent_s:(33.0 +. Budget.min_inference_s);
  check_float "inference excluded" 180.0 (Sim_account.sim_seconds a ~speedup:6.0)

let test_sim_account_saturation () =
  let a = Sim_account.create () in
  Sim_account.note_progress a ~spent_s:99.0;
  Sim_account.note_step a (Search.Think 5.0);
  (* The ledger saturated at 100: less growth than was charged. *)
  Sim_account.note_progress a ~spent_s:100.0;
  check_float "never negative" 99.0 (Sim_account.sim_seconds a ~speedup:1.0)

let cell =
  {
    Result_digest.label = "Avis/ArduPilot/auto-box";
    simulations = 50;
    inferences = 0;
    spent_s = 582.0;
    findings = [ (3, "gps failed at 12 s"); (9, "crash") ];
  }

let test_digest () =
  let d = Result_digest.digest [ cell ] in
  Alcotest.(check string) "deterministic" d (Result_digest.digest [ { cell with label = cell.label } ]);
  let differs name c =
    if Result_digest.digest [ c ] = d then Alcotest.failf "%s does not change the digest" name
  in
  differs "one ulp of spent" { cell with spent_s = Float.succ cell.spent_s };
  differs "a finding index" { cell with findings = [ (4, "gps failed at 12 s"); (9, "crash") ] };
  differs "a description" { cell with findings = [ (3, "gps failed at 13 s"); (9, "crash") ] };
  differs "the simulation count" { cell with simulations = 51 };
  differs "the inference count" { cell with inferences = 1 };
  (* Field boundaries cannot shift between label and description. *)
  let a = { cell with label = "ab"; findings = [ (1, "c") ] } in
  let b = { cell with label = "a"; findings = [ (1, "bc") ] } in
  if Result_digest.digest [ a ] = Result_digest.digest [ b ] then
    Alcotest.fail "length prefixes missing";
  if Result_digest.digest [ a; b ] = Result_digest.digest [ b; a ] then
    Alcotest.fail "cell order ignored"

let test_env_pin () =
  Unix.putenv "AVIS_STORE_DIR" "/tmp/leftover-store";
  Unix.putenv "AVIS_LANES" "4";
  Unix.putenv "AVIS_PREFIX_CACHE" "off";
  let found = Env_pin.pin () in
  Alcotest.(check (option string)) "leftover store recorded" (Some "/tmp/leftover-store")
    (List.assoc "AVIS_STORE_DIR" found);
  Alcotest.(check (option string)) "lanes recorded" (Some "4") (List.assoc "AVIS_LANES" found);
  Alcotest.(check (list string)) "every knob reported"
    (List.map fst Env_pin.pinned) (List.map fst found);
  Alcotest.(check (option string)) "store cleared" (Some "") (Sys.getenv_opt "AVIS_STORE_DIR");
  Alcotest.(check int) "unbatched" 1 (Campaign.lanes_of_env ());
  Alcotest.(check bool) "prefix cache on" true (Prefix_cache.enabled_by_env ());
  Alcotest.(check bool) "tracing off" false (Avis_util.Trace.enabled_by_env ());
  Alcotest.(check int) "one job" 1 (Avis_util.Pool.jobs_of_env ());
  let again = Env_pin.pin () in
  List.iter
    (fun (var, value) ->
      Alcotest.(check (option string)) var (Some value) (List.assoc var again))
    Env_pin.pinned

let span name ts dur = { Trace_stats.name; tid = 0; ts; dur }

let test_self_times () =
  let spans =
    [
      span "cell" 0.0 100.0; span "profile" 0.0 30.0; span "steps" 5.0 20.0;
      span "run" 40.0 50.0; span "steps" 45.0 40.0; span "snapshot" 50.0 5.0;
    ]
  in
  let self = Trace_stats.self_times spans in
  let get n = List.assoc n self *. 1e6 in
  check_float "cell" 20.0 (get "cell");
  check_float "profile" 10.0 (get "profile");
  check_float "steps, both" 55.0 (get "steps");
  check_float "run" 10.0 (get "run");
  check_float "snapshot" 5.0 (get "snapshot")

let event ph name extra =
  Avis_util.Json.Assoc
    ([ ("name", Avis_util.Json.String name); ("ph", Avis_util.Json.String ph);
       ("ts", Avis_util.Json.Number 1.0) ]
    @ extra)

let trace events = Avis_util.Json.Assoc [ ("traceEvents", Avis_util.Json.List events) ]

let test_trace_validation () =
  let x = event "X" "sim.steps" [ ("dur", Avis_util.Json.Number 2.0) ] in
  let counter name = event "C" name [ ("args", Avis_util.Json.Assoc []) ] in
  (match Trace_stats.spans_of_json (trace [ x; counter "store.hits"; counter "store.bytes" ]) with
  | Ok [ _ ] -> ()
  | Ok _ -> Alcotest.fail "expected one span"
  | Error m -> Alcotest.failf "store counters rejected: %s" m);
  (match Trace_stats.spans_of_json (trace [ x; counter "store.hit" ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown counter accepted");
  match Trace_stats.spans_of_json (trace [ event "X" "a" [] ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "span without a duration accepted"

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "p90 at n=100" `Quick test_tail_full;
          Alcotest.test_case "fallback below 100 samples" `Quick test_tail_fallback;
          Alcotest.test_case "ten samples beyond, highest such" `Quick test_tail_beyond_count;
        ] );
      ( "sim accounting",
        [
          Alcotest.test_case "inference excluded and floored" `Quick test_sim_account;
          Alcotest.test_case "saturated ledger" `Quick test_sim_account_saturation;
        ] );
      ("digest", [ Alcotest.test_case "sensitive and unambiguous" `Quick test_digest ]);
      ("environment", [ Alcotest.test_case "pinning" `Quick test_env_pin ]);
      ( "trace",
        [
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "validation" `Quick test_trace_validation;
        ] );
    ]
