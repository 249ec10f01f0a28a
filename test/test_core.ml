(* Tests for avis_core's data structures: the mode graph, the liveliness
   metric, scenarios, the pruning policies, the budget model, the BFI
   model, report bucketing and the bug-study dataset. *)

open Avis_sensors
open Avis_core

(* Mode graph *)

let simple_graph =
  Mode_graph.build
    ~transitions:
      [
        [ ("Pre-Flight", "Takeoff"); ("Takeoff", "Waypoint 1");
          ("Waypoint 1", "Waypoint 2"); ("Waypoint 2", "Land");
          ("Land", "Disarmed") ];
      ]

let test_graph_nodes () =
  Alcotest.(check int) "six modes" 6 (List.length (Mode_graph.modes simple_graph));
  Alcotest.(check bool) "has takeoff" true (Mode_graph.has_mode simple_graph "Takeoff");
  Alcotest.(check bool) "no rtl" false
    (Mode_graph.has_mode simple_graph "Return To Launch")

let test_graph_distances () =
  Alcotest.(check int) "self" 0 (Mode_graph.distance simple_graph "Takeoff" "Takeoff");
  Alcotest.(check int) "adjacent" 1
    (Mode_graph.distance simple_graph "Takeoff" "Waypoint 1");
  Alcotest.(check int) "two hops" 2
    (Mode_graph.distance simple_graph "Takeoff" "Waypoint 2");
  Alcotest.(check int) "symmetric" 2
    (Mode_graph.distance simple_graph "Waypoint 2" "Takeoff")

let test_graph_diameter () =
  Alcotest.(check int) "chain diameter" 5 (Mode_graph.diameter simple_graph);
  Alcotest.(check int) "unknown mode at diameter" 5
    (Mode_graph.distance simple_graph "Takeoff" "Mystery")

let test_graph_merges_runs () =
  let g =
    Mode_graph.build
      ~transitions:[ [ ("A", "B") ]; [ ("B", "C") ]; [ ("A", "B"); ("B", "C") ] ]
  in
  Alcotest.(check int) "three modes" 3 (List.length (Mode_graph.modes g));
  Alcotest.(check int) "across runs" 2 (Mode_graph.distance g "A" "C")

(* Scenario *)

let id kind index = { Sensor.kind; index }

let fault kind index at = Scenario.sensor_fault (id kind index) at

let test_scenario_canonical () =
  let a = Scenario.of_faults [ fault Sensor.Gps 1 5.0; fault Sensor.Gps 0 2.0 ] in
  let b = Scenario.of_faults [ fault Sensor.Gps 0 2.0; fault Sensor.Gps 1 5.0 ] in
  Alcotest.(check string) "same key" (Scenario.key a) (Scenario.key b);
  Alcotest.(check int) "dedup" 1
    (Scenario.cardinality (Scenario.of_faults [ fault Sensor.Gps 0 1.0; fault Sensor.Gps 0 1.0 ]))

let test_scenario_role_key () =
  (* Two backups of the same kind at the same time are symmetric... *)
  let compass_b1 = Scenario.of_faults [ fault Sensor.Compass 1 3.0 ] in
  let compass_b2 = Scenario.of_faults [ fault Sensor.Compass 1 3.0 ] in
  Alcotest.(check string) "backup symmetric" (Scenario.role_key compass_b1)
    (Scenario.role_key compass_b2);
  (* ...but primary vs backup differ. *)
  let compass_p = Scenario.of_faults [ fault Sensor.Compass 0 3.0 ] in
  Alcotest.(check bool) "primary distinct" true
    (Scenario.role_key compass_p <> Scenario.role_key compass_b1)

let test_scenario_subsumes () =
  let small = Scenario.of_faults [ fault Sensor.Gps 0 2.0 ] in
  let large = Scenario.of_faults [ fault Sensor.Gps 0 2.0; fault Sensor.Battery 0 4.0 ] in
  Alcotest.(check bool) "subset" true (Scenario.subsumes ~smaller:small ~larger:large);
  Alcotest.(check bool) "not superset" false
    (Scenario.subsumes ~smaller:large ~larger:small);
  let shifted = Scenario.of_faults [ fault Sensor.Gps 0 2.5 ] in
  Alcotest.(check bool) "different time" false
    (Scenario.subsumes ~smaller:shifted ~larger:large)

let test_scenario_first_injection () =
  let s = Scenario.of_faults [ fault Sensor.Gps 0 7.0; fault Sensor.Barometer 0 3.0 ] in
  Alcotest.(check (option (float 1e-9))) "earliest" (Some 3.0)
    (Scenario.first_injection_time s);
  Alcotest.(check (option (float 1e-9))) "empty" None
    (Scenario.first_injection_time Scenario.empty);
  let with_link =
    Scenario.of_faults
      [ fault Sensor.Gps 0 7.0; Scenario.link_loss ~at:2.0 ~duration:15.0 ]
  in
  Alcotest.(check (option (float 1e-9))) "link counted" (Some 2.0)
    (Scenario.first_injection_time with_link)

let smaller_sensor_only = Scenario.of_faults [ fault Sensor.Gps 0 2.0 ]

let test_scenario_link_faults () =
  let l = Scenario.link_loss ~at:5.0 ~duration:15.0 in
  let s = Scenario.of_faults [ l; fault Sensor.Gps 0 2.0 ] in
  (* Canonical key is insensitive to listing order and names the outage. *)
  let s' = Scenario.of_faults [ fault Sensor.Gps 0 2.0; l ] in
  Alcotest.(check string) "same key" (Scenario.key s) (Scenario.key s');
  Alcotest.(check bool) "key names link" true
    (let rec contains i =
       i + 4 <= String.length (Scenario.key s)
       && (String.sub (Scenario.key s) i 4 = "link" || contains (i + 1))
     in
     contains 0);
  (* Link losses dedupe like any other fault and have no instance symmetry:
     the role key keeps them verbatim. *)
  Alcotest.(check int) "dedup" 1
    (Scenario.cardinality (Scenario.of_faults [ l; Scenario.link_loss ~at:5.0 ~duration:15.0 ]));
  Alcotest.(check string) "role key verbatim"
    (Scenario.role_key (Scenario.of_faults [ l ]))
    (Scenario.role_key (Scenario.of_faults [ Scenario.link_loss ~at:5.0 ~duration:15.0 ]));
  (* Durations distinguish outages even at the same start time. *)
  Alcotest.(check bool) "duration matters" true
    (Scenario.key (Scenario.of_faults [ l ])
    <> Scenario.key (Scenario.of_faults [ Scenario.link_loss ~at:5.0 ~duration:30.0 ]));
  (* Subsumption sees link faults like sensor faults. *)
  let smaller = Scenario.of_faults [ l ] in
  Alcotest.(check bool) "link subset" true
    (Scenario.subsumes ~smaller ~larger:s);
  Alcotest.(check bool) "not superset" false
    (Scenario.subsumes ~smaller:s ~larger:smaller);
  (* Only sensor faults become injector plans; outages go to the link. *)
  Alcotest.(check int) "plan excludes link" 1 (List.length (Scenario.to_plan s));
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9)))) "outages" [ (5.0, 15.0) ]
    (Scenario.link_outages s);
  Alcotest.(check bool) "has link loss" true (Scenario.has_link_loss s);
  Alcotest.(check bool) "sensor-only has none" false
    (Scenario.has_link_loss smaller_sensor_only)

(* Prune *)

let test_prune_dedup () =
  let p = Prune.create () in
  let s = Scenario.of_faults [ fault Sensor.Gps 0 2.0 ] in
  Alcotest.(check bool) "fresh" false (Prune.should_prune p s);
  Prune.note_run p s;
  Alcotest.(check bool) "repeat pruned" true (Prune.should_prune p s)

let test_prune_symmetry () =
  let p = Prune.create () in
  Prune.note_run p (Scenario.of_faults [ fault Sensor.Compass 1 3.0 ]);
  (* A different backup instance of a 3-compass vehicle would map to the
     same role key; with 2 compasses index 1 is the only backup, so test
     with gps backup which shares the role structure. *)
  Alcotest.(check bool) "equivalent role pruned" true
    (Prune.should_prune p (Scenario.of_faults [ fault Sensor.Compass 1 3.0 ]));
  let p' = Prune.create ~symmetry:false () in
  Prune.note_run p' (Scenario.of_faults [ fault Sensor.Compass 1 3.0 ]);
  Alcotest.(check bool) "exact key still pruned without symmetry" true
    (Prune.should_prune p' (Scenario.of_faults [ fault Sensor.Compass 1 3.0 ]))

let test_prune_found_bug () =
  let p = Prune.create () in
  let bug = Scenario.of_faults [ fault Sensor.Gps 0 2.0 ] in
  Prune.note_bug p bug;
  let superset = Scenario.of_faults [ fault Sensor.Gps 0 2.0; fault Sensor.Battery 0 2.0 ] in
  Alcotest.(check bool) "superset pruned" true (Prune.should_prune p superset);
  let p' = Prune.create ~found_bug:false () in
  Prune.note_bug p' bug;
  Alcotest.(check bool) "policy off" false (Prune.should_prune p' superset)

let test_prune_formulas () =
  (* Fig. 6: three compasses, 21 -> 5. *)
  Alcotest.(check int) "N(2^N-1) for 3" 21 (Prune.unpruned_scenarios ~instances:3);
  Alcotest.(check int) "2N-1 for 3" 5 (Prune.symmetry_scenarios ~instances:3);
  Alcotest.(check int) "2N-1 for 1" 1 (Prune.symmetry_scenarios ~instances:1)

let prop_symmetry_saves =
  QCheck.Test.make ~name:"symmetry always reduces for N >= 2" ~count:20
    (QCheck.int_range 2 12)
    (fun n ->
      Prune.symmetry_scenarios ~instances:n < Prune.unpruned_scenarios ~instances:n)

(* Budget *)

let test_budget_accounting () =
  let b = Budget.create ~speedup:10.0 ~total_s:100.0 () in
  Budget.charge_simulation b ~sim_seconds:100.0;
  Alcotest.(check (float 1e-9)) "sim cost scaled" 10.0 (Budget.spent_s b);
  Budget.charge_inference b 5.0;
  Alcotest.(check (float 1e-9)) "inference full price" 15.0 (Budget.spent_s b);
  Alcotest.(check bool) "not exhausted" false (Budget.exhausted b);
  Alcotest.(check bool) "can afford" true (Budget.can_afford_run b ~sim_seconds:800.0);
  Alcotest.(check bool) "cannot afford" false (Budget.can_afford_run b ~sim_seconds:900.0);
  Budget.charge_inference b 85.0;
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b);
  Alcotest.(check int) "counters" 1 (Budget.simulations_run b);
  Alcotest.(check int) "inferences" 2 (Budget.inferences_run b)

let test_budget_rejects_nonpositive () =
  Alcotest.check_raises "bad budget"
    (Invalid_argument "Budget.create: non-positive budget") (fun () ->
      ignore (Budget.create ~total_s:0.0 ()))

let test_budget_overshoot_clamped () =
  let b = Budget.create ~speedup:1.0 ~total_s:10.0 () in
  Budget.charge_simulation b ~sim_seconds:25.0;
  Alcotest.(check (float 1e-9)) "simulation saturates at total" 10.0
    (Budget.spent_s b);
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b);
  Alcotest.(check (float 1e-9)) "nothing left" 0.0 (Budget.remaining_s b);
  let b' = Budget.create ~speedup:1.0 ~total_s:10.0 () in
  Budget.charge_inference b' 9.0;
  Budget.charge_inference b' 9.0;
  Alcotest.(check (float 1e-9)) "inference saturates at total" 10.0
    (Budget.spent_s b')

let test_budget_zero_cost_inference_floored () =
  let b = Budget.create ~speedup:1.0 ~total_s:1.0 () in
  Budget.charge_inference b 0.0;
  Alcotest.(check (float 1e-12)) "zero cost still charged"
    Budget.min_inference_s (Budget.spent_s b);
  Budget.charge_inference b (-5.0);
  Alcotest.(check (float 1e-12)) "negative cost floored too"
    (2.0 *. Budget.min_inference_s) (Budget.spent_s b);
  Alcotest.(check int) "both counted" 2 (Budget.inferences_run b)

let test_budget_afford_matches_charge () =
  (* What can_afford_run approves must be exactly what charge_simulation
     books: an exact fit drains the budget to zero, not past it. *)
  let b = Budget.create ~speedup:2.0 ~total_s:10.0 () in
  Alcotest.(check bool) "exact fit affordable" true
    (Budget.can_afford_run b ~sim_seconds:20.0);
  Budget.charge_simulation b ~sim_seconds:20.0;
  Alcotest.(check (float 1e-9)) "charged what was approved" 10.0
    (Budget.spent_s b);
  Alcotest.(check bool) "now exhausted" true (Budget.exhausted b);
  Alcotest.(check bool) "nothing further affordable" false
    (Budget.can_afford_run b ~sim_seconds:0.1)

(* BFI model *)

let test_bfi_mode_class () =
  Alcotest.(check string) "waypoint collapsed" "Waypoint"
    (Bfi_model.mode_class_of_label "Waypoint 7");
  Alcotest.(check string) "others kept" "Land" (Bfi_model.mode_class_of_label "Land")

let test_bfi_model_distribution () =
  let model = Bfi_model.default () in
  let features mode whole =
    { Bfi_model.mode_class = mode; kinds = [ Sensor.Gps ];
      whole_kind_lost = whole; multiplicity = 1 }
  in
  let cruise = Bfi_model.predict model (features "Waypoint" true) in
  let takeoff = Bfi_model.predict model (features "Takeoff" true) in
  Alcotest.(check bool) "cruise scored higher" true (cruise > takeoff);
  Alcotest.(check bool) "cruise approved" true (cruise > 0.5);
  Alcotest.(check bool) "takeoff rejected" true (takeoff < 0.5);
  let multi =
    Bfi_model.predict model
      { Bfi_model.mode_class = "Waypoint"; kinds = [ Sensor.Gps; Sensor.Battery ];
        whole_kind_lost = true; multiplicity = 2 }
  in
  Alcotest.(check bool) "multi-failure rejected" true (multi < 0.5)

let test_bfi_predict_probability_range () =
  let model = Bfi_model.default () in
  List.iter
    (fun mode ->
      let p =
        Bfi_model.predict model
          { Bfi_model.mode_class = mode; kinds = [ Sensor.Compass ];
            whole_kind_lost = false; multiplicity = 1 }
      in
      Alcotest.(check bool) "in (0,1)" true (p > 0.0 && p < 1.0))
    [ "Takeoff"; "Waypoint"; "Manual"; "Land" ]

let test_bfi_train_empty () =
  Alcotest.check_raises "empty corpus"
    (Invalid_argument "Bfi_model.train: empty corpus") (fun () ->
      ignore (Bfi_model.train []))

(* Report buckets *)

let test_report_buckets () =
  Alcotest.(check string) "waypoint" "Waypoint"
    (Report.bucket_label (Report.bucket_of_mode "Waypoint 2"));
  Alcotest.(check string) "preflight folds to takeoff" "Takeoff"
    (Report.bucket_label (Report.bucket_of_mode "Pre-Flight"));
  Alcotest.(check string) "rtl folds to land" "Land"
    (Report.bucket_label (Report.bucket_of_mode "Return To Launch"))

let test_report_mode_at () =
  let transitions =
    [
      { Avis_hinj.Hinj.time = 2.0; from_mode = "Pre-Flight"; to_mode = "Takeoff" };
      { Avis_hinj.Hinj.time = 10.0; from_mode = "Takeoff"; to_mode = "Waypoint 1" };
    ]
  in
  Alcotest.(check string) "before all" "Pre-Flight"
    (Report.mode_at_from_transitions transitions 1.0);
  Alcotest.(check string) "mid" "Takeoff"
    (Report.mode_at_from_transitions transitions 5.0);
  (* A transition at exactly the query time is attributed to the mode
     before it. *)
  Alcotest.(check string) "boundary" "Takeoff"
    (Report.mode_at_from_transitions transitions 10.0)

(* Bug study *)

(* Fault spec parsing (the CLI's --fault syntax) *)

let test_fault_spec_parses () =
  let ok s expect =
    match Fault_spec.parse s with
    | Ok t ->
      Alcotest.(check bool) (s ^ " fields") true (t = expect);
      (* Canonical print round-trips. *)
      Alcotest.(check bool) (s ^ " round-trips") true
        (Fault_spec.parse (Fault_spec.to_string t) = Ok t)
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  ok "gps@12.5" { Fault_spec.kind = Sensor.Gps; index = None; at = 12.5 };
  ok "gps[0]@12.5" { Fault_spec.kind = Sensor.Gps; index = Some 0; at = 12.5 };
  ok "barometer[2]@0"
    { Fault_spec.kind = Sensor.Barometer; index = Some 2; at = 0.0 }

let test_fault_spec_rejects () =
  let rejects s =
    match Fault_spec.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  in
  List.iter rejects
    [
      (* Regression: a malformed index used to degrade silently to an
         all-instances fault. *)
      "gps[abc]@5";
      "gps[]@5";
      "gps[1@5";
      "gps[1]]@5";
      "gps[-1]@5";
      (* Times must be finite and non-negative. Regression: "inf" used to
         parse, producing a scenario that can never fire yet still
         charges budget. *)
      "gps@nan";
      "gps@inf";
      "gps@infinity";
      "gps@-inf";
      "gps@1e999";
      "gps@-1";
      "gps@";
      "gps";
      (* Unknown sensor kinds. *)
      "sonar@5";
      "@5";
    ]

(* to_string then parse must reproduce any spec exactly. Times are drawn
   on a grid that "%g" renders losslessly (at most 6 significant digits),
   which covers every time a user could have typed back in. *)
let test_fault_spec_roundtrip_qcheck =
  let gen =
    QCheck.Gen.(
      let* kind =
        oneofl
          Sensor.
            [ Accelerometer; Gyroscope; Compass; Gps; Barometer; Battery ]
      in
      let* index = opt (int_bound 3) in
      let* at =
        oneof
          [
            map (fun d -> float_of_int d /. 100.0) (int_bound 100_000);
            map float_of_int (int_bound 1_000_000);
            return 0.0;
          ]
      in
      return { Fault_spec.kind; index; at })
  in
  QCheck.Test.make ~count:500 ~name:"fault spec to_string/parse round-trips"
    (QCheck.make gen)
    (fun spec ->
      match Fault_spec.parse (Fault_spec.to_string spec) with
      | Ok parsed ->
        if parsed <> spec then
          QCheck.Test.fail_reportf "round-trip changed %S to %S"
            (Fault_spec.to_string spec)
            (Fault_spec.to_string parsed)
        else true
      | Error e ->
        QCheck.Test.fail_reportf "parse %S failed: %s"
          (Fault_spec.to_string spec) e)

let test_bugstudy_totals () =
  Alcotest.(check int) "215 records" 215 Avis_bugstudy.Bugstudy.total;
  Alcotest.(check int) "44 sensor bugs" 44
    (List.length Avis_bugstudy.Bugstudy.sensor_bugs)

let test_bugstudy_findings () =
  let open Avis_bugstudy.Bugstudy in
  Alcotest.(check bool) "finding 1: ~20% sensor" true
    (Float.abs (fraction_by_cause Sensor_fault -. 0.20) < 0.015);
  Alcotest.(check bool) "finding 1: ~40% of crashes" true
    (Float.abs (crash_fraction_by_cause Sensor_fault -. 0.40) < 0.02);
  Alcotest.(check bool) "finding 2: ~47% default-reproducible" true
    (Float.abs (sensor_default_reproducible_fraction -. 0.47) < 0.02);
  Alcotest.(check bool) "finding 3: ~34% serious" true
    (Float.abs (sensor_serious_fraction -. 0.34) < 0.02);
  Alcotest.(check bool) "semantic ~90% asymptomatic" true
    (Float.abs (semantic_asymptomatic_fraction -. 0.90) < 0.02)

let test_bugstudy_symptom_breakdown_sums () =
  let open Avis_bugstudy.Bugstudy in
  let total_sensor =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (symptom_breakdown sensor_bugs)
  in
  Alcotest.(check int) "breakdown covers all" 44 total_sensor

(* Result digest: what every identity check in the project compares. *)

let test_result_digest () =
  let config =
    {
      (Campaign.default_config Avis_firmware.Policy.apm Workload.quickstart) with
      Campaign.budget_s = 120.0;
    }
  in
  let approach = "Avis" in
  let digest = Campaign.result_digest config ~approach in
  let strategy ctx = Sabre.make ctx in
  let path = Filename.temp_file "avis-digest" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let journal = Run_journal.open_ path in
  let cold =
    Campaign.run ~journal ~journal_approach:approach
      { config with Campaign.prefix_cache = false } ~strategy
  in
  let cached =
    Campaign.run { config with Campaign.prefix_cache = true } ~strategy
  in
  Alcotest.(check string) "cold = cached" (digest cold) (digest cached);
  Alcotest.(check bool) "inferences count" true
    (digest cold
    <> digest { cold with Campaign.inferences = cold.Campaign.inferences + 1 });
  (match cold.Campaign.findings with
  | [] -> Alcotest.fail "fixture campaign recorded no finding"
  | f :: rest ->
    let report = { f.Campaign.report with Report.injection_mode = "Elsewhere" } in
    Alcotest.(check bool) "finding description counts" true
      (digest cold
      <> digest
           { cold with Campaign.findings = { f with Campaign.report } :: rest }));
  (* Measurements stay out: GC and cache counters, and the journal's
     elapsed_bits — the digest is the memo's bytes less its duration. *)
  Alcotest.(check string) "GC and cache counters ignored" (digest cold)
    (digest
       {
         cold with
         Campaign.minor_words = 0.0;
         major_collections = 7;
         cache_stats = None;
       });
  let parsed =
    match Avis_util.Json.of_string (digest cold) with
    | Ok j -> Option.get (Run_journal.record_of_json j)
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "no elapsed_bits" true
    (parsed.Run_journal.elapsed_bits = None);
  match Campaign.journal_memo journal config ~approach with
  | None -> Alcotest.fail "cold run journaled no memo"
  | Some memo ->
    Alcotest.(check bool) "memo carries elapsed_bits" true
      (memo.Run_journal.elapsed_bits <> None);
    Alcotest.(check string) "memo bytes less elapsed_s" (digest cold)
      (Avis_util.Json.to_string
         (Run_journal.record_to_json
            {
              memo with
              Run_journal.key = parsed.Run_journal.key;
              elapsed_bits = None;
            }))

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "avis_core"
    [
      ( "mode graph",
        [
          Alcotest.test_case "nodes" `Quick test_graph_nodes;
          Alcotest.test_case "distances" `Quick test_graph_distances;
          Alcotest.test_case "diameter" `Quick test_graph_diameter;
          Alcotest.test_case "merges runs" `Quick test_graph_merges_runs;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "canonical" `Quick test_scenario_canonical;
          Alcotest.test_case "role key" `Quick test_scenario_role_key;
          Alcotest.test_case "subsumes" `Quick test_scenario_subsumes;
          Alcotest.test_case "first injection" `Quick test_scenario_first_injection;
          Alcotest.test_case "link faults" `Quick test_scenario_link_faults;
        ] );
      ( "prune",
        [
          Alcotest.test_case "dedup" `Quick test_prune_dedup;
          Alcotest.test_case "symmetry" `Quick test_prune_symmetry;
          Alcotest.test_case "found bug" `Quick test_prune_found_bug;
          Alcotest.test_case "formulas" `Quick test_prune_formulas;
          q prop_symmetry_saves;
        ] );
      ( "budget",
        [
          Alcotest.test_case "accounting" `Quick test_budget_accounting;
          Alcotest.test_case "rejects nonpositive" `Quick test_budget_rejects_nonpositive;
          Alcotest.test_case "overshoot clamped" `Quick test_budget_overshoot_clamped;
          Alcotest.test_case "zero-cost inference floored" `Quick test_budget_zero_cost_inference_floored;
          Alcotest.test_case "afford matches charge" `Quick test_budget_afford_matches_charge;
        ] );
      ( "bfi model",
        [
          Alcotest.test_case "mode class" `Quick test_bfi_mode_class;
          Alcotest.test_case "distribution" `Quick test_bfi_model_distribution;
          Alcotest.test_case "probability range" `Quick test_bfi_predict_probability_range;
          Alcotest.test_case "train empty" `Quick test_bfi_train_empty;
        ] );
      ( "report",
        [
          Alcotest.test_case "buckets" `Quick test_report_buckets;
          Alcotest.test_case "mode at" `Quick test_report_mode_at;
        ] );
      ( "fault spec",
        [
          Alcotest.test_case "parses" `Quick test_fault_spec_parses;
          Alcotest.test_case "rejects malformed" `Quick test_fault_spec_rejects;
          q test_fault_spec_roundtrip_qcheck;
        ] );
      ( "digest",
        [ Alcotest.test_case "what counts as same" `Slow test_result_digest ] );
      ( "bug study",
        [
          Alcotest.test_case "totals" `Quick test_bugstudy_totals;
          Alcotest.test_case "findings" `Quick test_bugstudy_findings;
          Alcotest.test_case "breakdown sums" `Quick test_bugstudy_symptom_breakdown_sums;
        ] );
    ]
