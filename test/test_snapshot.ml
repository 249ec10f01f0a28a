(* Snapshot/fork correctness: a snapshot is a deep copy (running the
   original afterwards does not disturb it), a restore is an independent
   bit-identical fork, and the prefix cache built on top is
   outcome-transparent — every cached result equals the cold one, so
   campaigns produce identical results with caching on or off. *)

open Avis_sensors
open Avis_firmware
open Avis_sitl
open Avis_core

let fail_kind ?(n = 2) kind at =
  List.init n (fun index -> { Avis_hinj.Hinj.sensor = { Sensor.kind; index }; at })

let sim_config ?(seed = 42) workload policy =
  let base = Sim.default_config policy in
  {
    base with
    Sim.seed;
    max_duration = workload.Workload.nominal_duration +. 60.0;
    environment = workload.Workload.environment ();
  }

let cold_run ?seed ?(plan = []) workload policy =
  let sim = Sim.create ~plan (sim_config ?seed workload policy) in
  let passed = Workload.execute workload sim in
  Sim.outcome sim ~workload_passed:passed

(* Everything observable about a run. Traces are compared sample by sample
   (position, acceleration, mode, timestamps), so "equal" here means
   bit-identical, not merely same verdict. *)
let fingerprint (o : Sim.outcome) =
  ( Trace.samples o.Sim.trace,
    o.Sim.crash,
    o.Sim.fence_breached,
    o.Sim.workload_passed,
    o.Sim.transitions,
    o.Sim.triggered_bugs,
    o.Sim.duration,
    o.Sim.sensor_reads )

let check_same_outcome msg a b =
  Alcotest.(check bool) msg true (fingerprint a = fingerprint b)

let test_same_seed_same_outcome () =
  let plan = fail_kind Sensor.Gps 20.0 in
  let a = cold_run ~plan Workload.quickstart Policy.apm in
  let b = cold_run ~plan Workload.quickstart Policy.apm in
  check_same_outcome "identical replays" a b;
  Alcotest.(check bool) "trace is non-trivial" true
    (Array.length (Trace.samples a.Sim.trace) > 10)

(* Pause a clean run mid-flight, snapshot, substitute a fault plan on
   restore, and finish: the outcome must be bit-identical to simulating the
   faulty run from scratch. *)
let restore_and_finish ~plan ~(snap : Sim.snapshot)
    ~(stepper : Workload.Stepper.snapshot) =
  let sim = Sim.restore ~plan snap in
  let st = Workload.Stepper.restore stepper in
  let passed =
    match Workload.Stepper.run st sim ~until:infinity with
    | Workload.Stepper.Done p -> p
    | Workload.Stepper.Running -> false
  in
  Sim.outcome sim ~workload_passed:passed

let paused_clean_run workload policy ~until =
  let sim = Sim.create ~plan:[] (sim_config workload policy) in
  let st = Workload.Stepper.create workload in
  (match Workload.Stepper.run st sim ~until with
  | Workload.Stepper.Running -> ()
  | Workload.Stepper.Done _ -> Alcotest.fail "clean run finished before pause");
  (sim, st)

let test_restore_bit_identical () =
  let workload = Workload.quickstart and policy = Policy.apm in
  let plan = fail_kind Sensor.Gps 20.0 in
  let cold = cold_run ~plan workload policy in
  let sim, st = paused_clean_run workload policy ~until:15.0 in
  Alcotest.(check bool) "paused strictly before 15 s" true (Sim.time sim < 15.0);
  let snap = Sim.snapshot sim in
  let stepper = Workload.Stepper.snapshot st in
  let warm = restore_and_finish ~plan ~snap ~stepper in
  check_same_outcome "restored suffix = cold run" cold warm

let test_snapshot_is_deep () =
  let workload = Workload.quickstart and policy = Policy.apm in
  let plan = fail_kind Sensor.Gyroscope 20.0 in
  let cold = cold_run ~plan workload policy in
  let sim, st = paused_clean_run workload policy ~until:10.0 in
  let snap = Sim.snapshot sim in
  let stepper = Workload.Stepper.snapshot st in
  (* Keep running the original to completion: a shallow snapshot would be
     corrupted by the shared mutable state advancing underneath it. *)
  (match Workload.Stepper.run st sim ~until:infinity with
  | Workload.Stepper.Done passed ->
    Alcotest.(check bool) "clean original still passes" true passed
  | Workload.Stepper.Running -> Alcotest.fail "clean run did not finish");
  let warm1 = restore_and_finish ~plan ~snap ~stepper in
  check_same_outcome "snapshot survives the original running on" cold warm1;
  (* And one snapshot restores any number of times. *)
  let warm2 = restore_and_finish ~plan ~snap ~stepper in
  check_same_outcome "second restore of the same snapshot" cold warm2

let scen_kind ?(n = 2) kind at =
  Scenario.of_faults
    (List.init n (fun index -> Scenario.sensor_fault { Sensor.kind; index } at))

let test_prefix_cache_transparent () =
  let workload = Workload.auto_box and policy = Policy.apm in
  let make_sim ~scenario =
    Sim.create
      ~plan:(Scenario.to_plan scenario)
      ~link_outages:(Scenario.link_outages scenario)
      (sim_config workload policy)
  in
  let checkpoint_times = List.init 40 (fun i -> 2.0 *. float_of_int (i + 1)) in
  let cache = Prefix_cache.create ~workload ~make_sim ~checkpoint_times () in
  Alcotest.(check bool) "cacheable config" false (Prefix_cache.bypassing cache);
  let scenarios =
    [
      Scenario.empty;
      scen_kind Sensor.Gps 25.0;
      scen_kind Sensor.Compass 40.0;
      scen_kind ~n:1 Sensor.Barometer 12.5;
      (* A scheduled link outage forks bit-identically too... *)
      Scenario.of_faults [ Scenario.link_loss ~at:25.0 ~duration:10.0 ];
      (* ...including stacked on a sensor fault. *)
      Scenario.of_faults
        [
          Scenario.sensor_fault { Sensor.kind = Sensor.Barometer; index = 0 } 12.5;
          Scenario.link_loss ~at:30.0 ~duration:8.0;
        ];
      (* Earlier than every checkpoint: must fall back to a cold run. *)
      scen_kind ~n:1 Sensor.Gps 0.5;
    ]
  in
  let misses () = (Prefix_cache.stats cache).Prefix_cache.misses in
  let new_misses =
    List.map
      (fun scenario ->
        let before = misses () in
        let cached = Prefix_cache.execute cache ~scenario in
        let sim = make_sim ~scenario in
        let passed = Workload.execute workload sim in
        let cold = Sim.outcome sim ~workload_passed:passed in
        check_same_outcome "cached = cold" cold cached;
        misses () - before)
      scenarios
  in
  let stats = Prefix_cache.stats cache in
  Alcotest.(check bool) "served hits" true (stats.Prefix_cache.hits >= 4);
  (* The first run finds an empty cache; every later one but the 0.5 s
     fault forks from a checkpoint an earlier run left. *)
  Alcotest.(check int) "first run into an empty cache misses" 1
    (List.hd new_misses);
  Alcotest.(check int) "early fault misses" 1
    (List.nth new_misses (List.length new_misses - 1));
  Alcotest.(check int) "no other misses" 2 stats.Prefix_cache.misses;
  Alcotest.(check bool) "skipped simulated time" true
    (stats.Prefix_cache.saved_sim_s > 0.0)

(* There is no separate clean run: the clean prefix is whatever faulty runs
   flew before their first fault. So faults landing exactly on capture
   times — a sensor fault and an outage on the one-second grid — must not
   leak into the empty-key checkpoints their runs leave, and a clean run
   executed after them must fork from those checkpoints bit-identically. *)
let test_prefix_cache_clean_from_faulty_runs () =
  let workload = Workload.quickstart and policy = Policy.apm in
  let make_sim ~scenario =
    Sim.create
      ~plan:(Scenario.to_plan scenario)
      ~link_outages:(Scenario.link_outages scenario)
      (sim_config workload policy)
  in
  let cache =
    Prefix_cache.create ~workload ~make_sim
      ~checkpoint_times:(List.init 30 (fun i -> float_of_int (i + 1)))
      ()
  in
  let hits () = (Prefix_cache.stats cache).Prefix_cache.hits in
  let run scenario =
    let cached = Prefix_cache.execute cache ~scenario in
    let sim = make_sim ~scenario in
    let passed = Workload.execute workload sim in
    check_same_outcome "cached = cold"
      (Sim.outcome sim ~workload_passed:passed)
      cached
  in
  run (Scenario.of_faults [ Scenario.link_loss ~at:20.0 ~duration:3.0 ]);
  run (scen_kind ~n:1 Sensor.Barometer 12.0);
  let before = hits () in
  run Scenario.empty;
  Alcotest.(check int) "clean run forked from a faulty run's prefix" 1
    (hits () - before);
  run (scen_kind Sensor.Gps 25.0)

(* Satellite regression: configurations whose runs carry state the cache
   key cannot encode — sensor degradations, probabilistic link faults —
   must be refused outright, every execution a cold run counted as a
   miss, never a served hit that could silently diverge. *)
let test_prefix_cache_bypasses_unencodable () =
  let workload = Workload.quickstart and policy = Policy.apm in
  let check_bypassed name make_sim =
    let cache =
      Prefix_cache.create ~workload ~make_sim
        ~checkpoint_times:(List.init 30 (fun i -> float_of_int (i + 1)))
        ()
    in
    Alcotest.(check bool) (name ^ " bypassing") true
      (Prefix_cache.bypassing cache);
    let scenario = scen_kind Sensor.Gps 25.0 in
    let a = Prefix_cache.execute cache ~scenario in
    let b = Prefix_cache.execute cache ~scenario in
    check_same_outcome (name ^ " deterministic cold runs") a b;
    let stats = Prefix_cache.stats cache in
    Alcotest.(check int) (name ^ " no hits") 0 stats.Prefix_cache.hits;
    Alcotest.(check int) (name ^ " all misses") 2 stats.Prefix_cache.misses
  in
  check_bypassed "degradations" (fun ~scenario ->
      Sim.create
        ~plan:(Scenario.to_plan scenario)
        ~link_outages:(Scenario.link_outages scenario)
        ~degradations:
          [
            {
              Avis_hinj.Hinj.target = { Sensor.kind = Sensor.Barometer; index = 0 };
              from_time = 10.0;
              kind = Avis_hinj.Hinj.Constant_bias 0.5;
            };
          ]
        (sim_config workload policy));
  check_bypassed "probabilistic link" (fun ~scenario ->
      Sim.create
        ~plan:(Scenario.to_plan scenario)
        ~link_outages:(Scenario.link_outages scenario)
        {
          (sim_config workload policy) with
          Sim.link_faults =
            { Avis_mavlink.Link.no_faults with Avis_mavlink.Link.drop = 0.05 };
        })

(* Satellite regression: the byte budget is a hard ceiling. With a tiny
   budget the cache must evict checkpoints, yet the accounted resident
   bytes may never exceed the budget and every outcome must still equal
   the cold run — eviction costs wall-clock, never correctness. *)
let test_prefix_cache_eviction_bounded () =
  let workload = Workload.quickstart and policy = Policy.apm in
  let make_sim ~scenario =
    Sim.create
      ~plan:(Scenario.to_plan scenario)
      ~link_outages:(Scenario.link_outages scenario)
      (sim_config workload policy)
  in
  let budget_mb = 1 in
  let cache =
    Prefix_cache.create ~cache_mb:budget_mb ~workload ~make_sim
      ~checkpoint_times:(List.init 30 (fun i -> float_of_int (i + 1)))
      ()
  in
  let budget_bytes = budget_mb * 1024 * 1024 in
  let check_resident () =
    let s = Prefix_cache.stats cache in
    Alcotest.(check bool) "resident within budget" true
      (s.Prefix_cache.resident_bytes <= budget_bytes
      && s.Prefix_cache.resident_bytes >= 0)
  in
  check_resident ();
  let scenarios =
    [
      Scenario.empty;
      scen_kind Sensor.Gps 25.0;
      scen_kind Sensor.Compass 40.0;
      scen_kind ~n:1 Sensor.Barometer 12.5;
      (* Repeat: either a hit or a re-simulated cold run post-eviction. *)
      scen_kind Sensor.Gps 25.0;
    ]
  in
  List.iter
    (fun scenario ->
      let cached = Prefix_cache.execute cache ~scenario in
      check_resident ();
      let sim = make_sim ~scenario in
      let passed = Workload.execute workload sim in
      let cold = Sim.outcome sim ~workload_passed:passed in
      check_same_outcome "evicting cache = cold" cold cached)
    scenarios;
  let s = Prefix_cache.stats cache in
  Alcotest.(check bool) "budget forced evictions" true
    (s.Prefix_cache.evictions > 0)

let test_campaign_cache_transparent () =
  let config =
    {
      (Campaign.default_config Policy.apm Workload.auto_box) with
      Campaign.budget_s = 200.0;
    }
  in
  let run prefix_cache =
    Campaign.run { config with prefix_cache } ~strategy:(fun ctx -> Sabre.make ctx)
  in
  let digest = Campaign.result_digest config ~approach:"Avis" in
  Alcotest.(check string) "same result digest" (digest (run false))
    (digest (run true))

(* A campaign replayed with a shared cache forks every scenario from its
   last checkpoint; cold, first-cached and replay runs must give the same
   result digest, and the replay must be served from snapshots (every
   scenario hits). *)
let check_replay_identical config ~approach ~strategy =
  let cold =
    Campaign.run { config with Campaign.prefix_cache = false } ~strategy
  in
  let cache = Campaign.make_cache config in
  let first = Campaign.run ~cache config ~strategy in
  let replay = Campaign.run ~cache config ~strategy in
  let digest = Campaign.result_digest config ~approach in
  let label = Campaign.label_of config ~approach in
  let check msg a b =
    Alcotest.(check string) (label ^ ": " ^ msg) (digest a) (digest b)
  in
  check "shared-cache first run = cold" cold first;
  check "shared-cache replay = cold" cold replay;
  let stats (r : Campaign.result) =
    match r.Campaign.cache_stats with
    | Some s -> s
    | None -> Alcotest.fail "cache disabled"
  in
  Alcotest.(check int) (label ^ ": replay added no misses")
    (stats first).Prefix_cache.misses (stats replay).Prefix_cache.misses

(* Every approach on both firmwares (the quickstart mission, small
   budget), plus a longer SABRE campaign on the auto-box mission. *)
let test_campaign_replay_identical () =
  check_replay_identical
    {
      (Campaign.default_config Policy.apm Workload.auto_box) with
      Campaign.budget_s = 200.0;
      prefix_cache = true;
    }
    ~approach:"Avis" ~strategy:(fun ctx -> Sabre.make ctx);
  List.iter
    (fun policy ->
      List.iter
        (fun (approach, strategy) ->
          check_replay_identical
            {
              (Campaign.cell_config ~budget_s:60.0 policy Workload.quickstart
                 ~approach)
              with
              Campaign.prefix_cache = true;
            }
            ~approach ~strategy)
        [
          ("Avis", fun ctx -> Sabre.make ctx);
          ("Strat. BFI", fun ctx -> Strat_bfi.make ctx);
          ("BFI", fun ctx -> Bfi.make ctx);
          ("Random", fun ctx -> Random_search.make ctx);
        ])
    [ Policy.apm; Policy.px4 ]

let () =
  Alcotest.run "avis_snapshot"
    [
      ( "snapshot",
        [
          Alcotest.test_case "same seed, same outcome" `Quick
            test_same_seed_same_outcome;
          Alcotest.test_case "restore = cold run" `Quick test_restore_bit_identical;
          Alcotest.test_case "snapshots are deep" `Quick test_snapshot_is_deep;
        ] );
      ( "prefix cache",
        [
          Alcotest.test_case "cache transparent" `Slow test_prefix_cache_transparent;
          Alcotest.test_case "clean prefix from faulty runs" `Slow
            test_prefix_cache_clean_from_faulty_runs;
          Alcotest.test_case "cache bypasses unencodable configs" `Slow
            test_prefix_cache_bypasses_unencodable;
          Alcotest.test_case "eviction keeps bytes bounded" `Slow
            test_prefix_cache_eviction_bounded;
          Alcotest.test_case "campaign on/off identical" `Slow
            test_campaign_cache_transparent;
          Alcotest.test_case "campaign replay identical" `Slow
            test_campaign_replay_identical;
        ] );
    ]
