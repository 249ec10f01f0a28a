(* Parallel campaign execution: the domain pool, the structured metrics
   lines, the zero-progress guard on the search loop, and the guarantee
   that a parallel campaign matrix is identical, finding for finding, to
   the sequential one. *)

open Avis_util
open Avis_firmware
open Avis_core

(* Pool *)

let test_pool_map_order () =
  let items = List.init 50 Fun.id in
  Alcotest.(check (list int))
    "order preserved" (List.map (fun x -> 2 * x) items)
    (Pool.map ~jobs:4 (fun x -> 2 * x) items)

let test_pool_inline_matches_parallel () =
  let items = List.init 20 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int))
    "jobs=1 equals jobs=8" (Pool.map ~jobs:1 f items) (Pool.map ~jobs:8 f items)

let test_pool_more_jobs_than_items () =
  Alcotest.(check (list int)) "2 items on 16 workers" [ 2; 3 ]
    (Pool.map ~jobs:16 succ [ 1; 2 ])

let test_pool_empty () =
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~jobs:4 succ [])

exception Boom

let test_pool_propagates_exception () =
  Alcotest.check_raises "job failure re-raised" Boom (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun x -> if x = 3 then raise Boom else x)
           (List.init 8 Fun.id)))

let test_pool_submit_and_close () =
  let pool = Pool.create ~jobs:3 in
  Alcotest.(check int) "worker count" 3 (Pool.jobs pool);
  let counter = Atomic.make 0 in
  for _ = 1 to 100 do
    Pool.submit pool (fun () -> Atomic.incr counter)
  done;
  Pool.close_and_wait pool;
  Alcotest.(check int) "all jobs ran" 100 (Atomic.get counter);
  Alcotest.check_raises "submit after close"
    (Invalid_argument "Pool.submit: pool is closed") (fun () ->
      Pool.submit pool (fun () -> ()))

let test_pool_inline_close () =
  let pool = Pool.create ~jobs:1 in
  let ran = ref false in
  Pool.submit pool (fun () -> ran := true);
  Alcotest.(check bool) "inline job ran at submit" true !ran;
  Pool.close_and_wait pool;
  Alcotest.check_raises "inline submit after close"
    (Invalid_argument "Pool.submit: pool is closed") (fun () ->
      Pool.submit pool (fun () -> ()))

let test_pool_env_defaults () =
  Alcotest.(check int) "unset variable falls back to the hardware"
    (Pool.default_jobs ())
    (Pool.jobs_of_env ~var:"AVIS_TEST_SURELY_UNSET_JOBS" ())

let spin_until cond =
  while not (cond ()) do
    Domain.cpu_relax ()
  done

(* Regression for the shutdown race: a submitter blocked on a full queue
   must be woken and refused when the pool closes, never allowed to
   enqueue into a dead pool (which silently dropped the job and later
   surfaced as an opaque "job did not complete"). *)
let test_pool_close_while_submitter_blocked () =
  let pool = Pool.create ~jobs:2 in
  (* Park both workers on [gate] so nothing drains the queue. *)
  let gate = Atomic.make false in
  let running = Atomic.make 0 in
  for _ = 1 to 2 do
    Pool.submit pool (fun () ->
        Atomic.incr running;
        spin_until (fun () -> Atomic.get gate))
  done;
  spin_until (fun () -> Atomic.get running = 2);
  (* Fill the queue to capacity (2 * jobs) so the next submit blocks. *)
  let queued_ran = Atomic.make 0 in
  for _ = 1 to 4 do
    Pool.submit pool (fun () -> Atomic.incr queued_ran)
  done;
  let late_ran = Atomic.make false in
  let entered = Atomic.make false in
  let submitter =
    Domain.spawn (fun () ->
        Atomic.set entered true;
        match Pool.submit pool (fun () -> Atomic.set late_ran true) with
        | () -> `Accepted
        | exception Invalid_argument _ -> `Refused)
  in
  spin_until (fun () -> Atomic.get entered);
  (* Give the submitter time to block inside [not_full] before closing;
     if the close still wins the race, the entry check refuses it too,
     so the assertion below holds either way. *)
  let t0 = Metrics.now_s () in
  spin_until (fun () -> Metrics.now_s () -. t0 > 0.05);
  let closer = Domain.spawn (fun () -> Pool.close_and_wait pool) in
  let verdict = Domain.join submitter in
  Atomic.set gate true;
  Domain.join closer;
  Alcotest.(check bool) "blocked submit refused, not dropped" true
    (verdict = `Refused);
  Alcotest.(check bool) "refused job never ran" false (Atomic.get late_ran);
  Alcotest.(check int) "jobs accepted before close all ran" 4
    (Atomic.get queued_ran)

(* Inline (jobs=1) parity with Crew: a job failure is captured at submit
   and re-raised at close, and later jobs still run. *)
let test_pool_inline_defers_exception () =
  let pool = Pool.create ~jobs:1 in
  let ran_after = ref false in
  Pool.submit pool (fun () -> raise Boom);
  Pool.submit pool (fun () -> ran_after := true);
  Alcotest.(check bool) "jobs after a failure still run" true !ran_after;
  Alcotest.check_raises "failure deferred to close" Boom (fun () ->
      Pool.close_and_wait pool);
  (* The failure was consumed by the first close; closing again is a
     no-op. *)
  Pool.close_and_wait pool

let test_pool_double_close_idempotent () =
  let pool = Pool.create ~jobs:2 in
  Pool.submit pool (fun () -> raise Boom);
  Alcotest.check_raises "first close re-raises the job failure" Boom
    (fun () -> Pool.close_and_wait pool);
  (* Second close must neither re-raise nor re-join the workers. *)
  Pool.close_and_wait pool;
  Pool.close_and_wait pool

let test_pool_concurrent_close () =
  let pool = Pool.create ~jobs:2 in
  Pool.submit pool (fun () -> raise Boom);
  let close () =
    match Pool.close_and_wait pool with () -> 0 | exception Boom -> 1
  in
  let d1 = Domain.spawn close in
  let d2 = Domain.spawn close in
  Alcotest.(check int) "exactly one closer observes the failure" 1
    (Domain.join d1 + Domain.join d2)

let test_pool_map_lpt_matches_map () =
  let items = List.init 30 Fun.id in
  let f x = (x * 3) + 1 in
  Alcotest.(check (list int)) "results in input order, equal to map"
    (Pool.map ~jobs:4 f items)
    (Pool.map_lpt ~jobs:4 ~weight:float_of_int f items);
  Alcotest.(check (list int)) "empty input" []
    (Pool.map_lpt ~jobs:4 ~weight:float_of_int f [])

let test_pool_map_lpt_feeds_heaviest_first () =
  (* An inline pool (jobs=1) runs each job at submit, so the execution
     order observed here is exactly the feed order. *)
  let ran = ref [] in
  let items = [ 1.0; 5.0; 3.0; 5.0; 2.0 ] in
  let results =
    Pool.map_lpt ~jobs:1 ~weight:Fun.id
      (fun w ->
        ran := w :: !ran;
        w)
      items
  in
  Alcotest.(check (list (float 0.0))) "results keep input order" items results;
  Alcotest.(check (list (float 0.0))) "fed heaviest first, ties stable"
    [ 5.0; 5.0; 3.0; 2.0; 1.0 ] (List.rev !ran)

let test_pool_queue_wait () =
  let inline = Pool.create ~jobs:1 in
  Pool.submit inline (fun () -> ());
  Alcotest.(check (float 0.0)) "inline jobs never wait" 0.0
    (Pool.queue_wait_s inline);
  Pool.close_and_wait inline;
  let pool = Pool.create ~jobs:2 in
  let gate = Atomic.make false in
  let running = Atomic.make 0 in
  for _ = 1 to 2 do
    Pool.submit pool (fun () ->
        Atomic.incr running;
        spin_until (fun () -> Atomic.get gate))
  done;
  spin_until (fun () -> Atomic.get running = 2);
  (* Both workers parked on the gate: this job must sit in the queue. *)
  Pool.submit pool (fun () -> ());
  let t0 = Metrics.now_s () in
  spin_until (fun () -> Metrics.now_s () -. t0 > 0.02);
  Atomic.set gate true;
  Pool.close_and_wait pool;
  Alcotest.(check bool) "queued job's wait measured" true
    (Pool.queue_wait_s pool > 0.0)

(* Metrics *)

let test_metrics_line_format () =
  let s =
    {
      Metrics.cell = "Avis/apm/auto-box"; simulations = 41; inferences = 7;
      spent_s = 612.04; budget_s = 7200.0; findings = 3; wall_s = 0.84;
      minor_words = 12_500_000.0; major_collections = 2; store_hits = 5;
      store_misses = 1; store_bytes = 4096;
    }
  in
  Alcotest.(check string) "grep-able key=value record"
    "[avis] event=progress cell=Avis/apm/auto-box sims=41 infs=7 \
     spent_s=612.0 budget_s=7200.0 findings=3 wall_s=0.8 minor_mw=12.50 \
     majors=2 store_h=5 store_m=1 store_b=4096"
    (Metrics.line ~event:"progress" s)

let test_metrics_clock_monotonic () =
  let a = Metrics.now_s () in
  let b = Metrics.now_s () in
  Alcotest.(check bool) "non-decreasing" true (b >= a)

let snap ?(minor = 0.0) ?(majors = 0) ?(store = (0, 0, 0)) cell ~sims ~infs
    ~spent ~findings ~wall =
  let store_hits, store_misses, store_bytes = store in
  {
    Metrics.cell; simulations = sims; inferences = infs; spent_s = spent;
    budget_s = 7200.0; findings; wall_s = wall; minor_words = minor;
    major_collections = majors; store_hits; store_misses; store_bytes;
  }

let test_metrics_total_row () =
  let a =
    snap "Avis/apm/auto-box" ~sims:41 ~infs:7 ~spent:612.0 ~findings:3
      ~wall:0.8 ~minor:1.5e6 ~majors:2 ~store:(4, 2, 9000)
  in
  let b =
    snap "Avis/px4/auto-box" ~sims:9 ~infs:2 ~spent:88.5 ~findings:1 ~wall:2.5
      ~minor:0.5e6 ~majors:1 ~store:(1, 3, 5000)
  in
  let t = Metrics.total [ a; b ] in
  Alcotest.(check string) "labelled as the max-wall total" "TOTAL (wall = max)"
    t.Metrics.cell;
  Alcotest.(check int) "sims summed" 50 t.Metrics.simulations;
  Alcotest.(check int) "infs summed" 9 t.Metrics.inferences;
  Alcotest.(check (float 1e-9)) "spend summed" 700.5 t.Metrics.spent_s;
  Alcotest.(check int) "findings summed" 4 t.Metrics.findings;
  (* Concurrent cells overlap in real time: wall is a max, not a sum —
     but allocation and collections are per-domain work, so they add. *)
  Alcotest.(check (float 1e-9)) "wall is the max" 2.5 t.Metrics.wall_s;
  Alcotest.(check (float 1e-9)) "minor words summed" 2.0e6 t.Metrics.minor_words;
  Alcotest.(check int) "majors summed" 3 t.Metrics.major_collections;
  Alcotest.(check int) "store hits summed" 5 t.Metrics.store_hits;
  Alcotest.(check int) "store misses summed" 5 t.Metrics.store_misses;
  (* Cells may share one store directory, so bytes take the max. *)
  Alcotest.(check int) "store bytes are the max" 9000 t.Metrics.store_bytes

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_metrics_summary_table () =
  let a = snap "a" ~sims:1 ~infs:0 ~spent:1.0 ~findings:0 ~wall:1.0 in
  let b = snap "b" ~sims:2 ~infs:0 ~spent:2.0 ~findings:0 ~wall:2.0 in
  let two = Table.render (Metrics.summary_table [ a; b ]) in
  Alcotest.(check bool) "TOTAL row present for two cells" true
    (contains ~needle:"TOTAL (wall = max)" two);
  let one = Table.render (Metrics.summary_table [ a ]) in
  Alcotest.(check bool) "no TOTAL row for a single cell" false
    (contains ~needle:"TOTAL" one)

(* The zero-progress guard: a searcher that keeps thinking at zero cost
   must still drain the budget and terminate. *)

let spinner _ctx =
  {
    Search.name = "spinner";
    next = (fun () -> Search.Think 0.0);
    observe = (fun _ _ -> ());
  }

let test_zero_cost_think_terminates () =
  let config =
    {
      (Campaign.default_config Policy.apm Workload.auto_box) with
      Campaign.budget_s = 2.0;
    }
  in
  let result = Campaign.run config ~strategy:spinner in
  Alcotest.(check int) "no simulations" 0 result.Campaign.simulations;
  Alcotest.(check (float 1e-9)) "budget fully drained, never exceeded" 2.0
    result.Campaign.wall_clock_spent_s;
  Alcotest.(check bool) "bounded think count" true
    (result.Campaign.inferences
    <= int_of_float (2.0 /. Budget.min_inference_s) + 1)

(* Determinism: the parallel matrix equals the sequential matrix. *)

let matrix_budget_s = 120.0

let matrix_approaches =
  [
    ("Avis", fun ctx -> Sabre.make ctx);
    ("Random", fun ctx -> Random_search.make ctx);
  ]

let run_matrix ~jobs =
  let cells =
    List.concat_map
      (fun policy ->
        List.map (fun approach -> (policy, approach)) matrix_approaches)
      [ Policy.apm; Policy.px4 ]
  in
  Pool.map ~jobs
    (fun (policy, (name, strategy)) ->
      let config =
        {
          (Campaign.default_config policy Workload.auto_box) with
          Campaign.budget_s = matrix_budget_s;
          seed =
            Campaign.cell_seed ~policy:policy.Policy.name
              ~workload:Workload.auto_box.Workload.name ~approach:name ();
        }
      in
      (name, policy.Policy.name, Campaign.run config ~strategy))
    cells

let fingerprint (result : Campaign.result) =
  ( result.Campaign.approach,
    result.Campaign.simulations,
    result.Campaign.inferences,
    result.Campaign.wall_clock_spent_s,
    List.map
      (fun f -> (f.Campaign.simulation_index, Report.describe f.Campaign.report))
      result.Campaign.findings )

let test_parallel_matrix_matches_sequential () =
  let sequential = run_matrix ~jobs:1 in
  let parallel = run_matrix ~jobs:4 in
  List.iter2
    (fun (name, policy, seq) (name', policy', par) ->
      Alcotest.(check string) "same cell approach" name name';
      Alcotest.(check string) "same cell policy" policy policy';
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s identical finding-for-finding" name policy)
        true
        (fingerprint seq = fingerprint par);
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s stays within budget" name policy)
        true
        (seq.Campaign.wall_clock_spent_s <= matrix_budget_s))
    sequential parallel

let test_cell_seed_stable_and_distinct () =
  let seed ?base approach =
    Campaign.cell_seed ?base ~policy:"apm" ~workload:"auto-box" ~approach ()
  in
  Alcotest.(check int) "stable across calls" (seed "Avis") (seed "Avis");
  Alcotest.(check bool) "distinct per approach" true (seed "Avis" <> seed "BFI");
  Alcotest.(check bool) "distinct per base seed" true
    (seed ~base:1 "Avis" <> seed ~base:2 "Avis");
  Alcotest.(check bool) "positive" true (seed "Avis" > 0)

(* Scheduler identity: a cell's bytes are a function of the cell alone,
   never of when or in what order the scheduler happened to run it. Any
   permutation of the execution order must yield byte-identical campaign
   records and journal contents. *)

let perm_specs =
  List.concat_map
    (fun (name, strategy) ->
      List.map (fun base -> (name, strategy, base)) [ 1; 2 ])
    [
      ("Avis", fun ctx -> Sabre.make ctx);
      ("Random", fun ctx -> Random_search.make ctx);
    ]

let perm_config (name, _, base) =
  {
    (Campaign.default_config Policy.apm Workload.quickstart) with
    Campaign.budget_s = 15.0;
    seed =
      Campaign.cell_seed ~base ~policy:Policy.apm.Policy.name
        ~workload:Workload.quickstart.Workload.name ~approach:name ();
  }

(* A served memo's bytes less elapsed_bits, the one informational field
   allowed to differ between runs (measured wall time). *)
let perm_memo_bytes record =
  Json.to_string
    (Run_journal.record_to_json { record with Run_journal.elapsed_bits = None })

let perm_run order =
  let path = Filename.temp_file "avis-perm" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let journal = Run_journal.open_ ~fingerprint:"perm" path in
  let digests =
    List.map
      (fun i ->
        let ((name, strategy, _) as spec) = List.nth perm_specs i in
        let config = perm_config spec in
        let result =
          Campaign.run ~journal ~journal_approach:name config ~strategy
        in
        (i, Campaign.result_digest config ~approach:name result))
      order
  in
  (* Reopen the journal as a reader: the records it serves back must be
     byte-identical too, independent of the order they were appended. *)
  let reader = Run_journal.open_ ~fingerprint:"perm" path in
  let memos =
    List.mapi
      (fun i ((name, _, _) as spec) ->
        match Campaign.journal_memo reader (perm_config spec) ~approach:name with
        | Some record -> (i, perm_memo_bytes record)
        | None -> (i, "missing"))
      perm_specs
  in
  (List.sort compare digests, memos)

let perm_reference = lazy (perm_run [ 0; 1; 2; 3 ])

let test_permutation_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5
       ~name:"any execution order yields byte-identical cells"
       (QCheck.make
          ~print:(fun order ->
            String.concat "," (List.map string_of_int order))
          (QCheck.Gen.shuffle_l [ 0; 1; 2; 3 ]))
       (fun order ->
         let ref_results, ref_memos = Lazy.force perm_reference in
         let results, memos = perm_run order in
         results = ref_results && memos = ref_memos))

let () =
  Alcotest.run "avis_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map keeps order" `Quick test_pool_map_order;
          Alcotest.test_case "inline = parallel" `Quick test_pool_inline_matches_parallel;
          Alcotest.test_case "more workers than items" `Quick test_pool_more_jobs_than_items;
          Alcotest.test_case "empty input" `Quick test_pool_empty;
          Alcotest.test_case "exception propagates" `Quick test_pool_propagates_exception;
          Alcotest.test_case "submit and close" `Quick test_pool_submit_and_close;
          Alcotest.test_case "inline close" `Quick test_pool_inline_close;
          Alcotest.test_case "env fallback" `Quick test_pool_env_defaults;
          Alcotest.test_case "close refuses blocked submitter" `Quick
            test_pool_close_while_submitter_blocked;
          Alcotest.test_case "inline defers exception" `Quick
            test_pool_inline_defers_exception;
          Alcotest.test_case "double close idempotent" `Quick
            test_pool_double_close_idempotent;
          Alcotest.test_case "concurrent close" `Quick
            test_pool_concurrent_close;
          Alcotest.test_case "map_lpt = map" `Quick
            test_pool_map_lpt_matches_map;
          Alcotest.test_case "map_lpt feeds heaviest first" `Quick
            test_pool_map_lpt_feeds_heaviest_first;
          Alcotest.test_case "queue wait measured" `Quick
            test_pool_queue_wait;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "line format" `Quick test_metrics_line_format;
          Alcotest.test_case "monotonic clock" `Quick test_metrics_clock_monotonic;
          Alcotest.test_case "total row" `Quick test_metrics_total_row;
          Alcotest.test_case "summary table" `Quick test_metrics_summary_table;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "zero-cost think terminates" `Quick test_zero_cost_think_terminates;
          Alcotest.test_case "cell seeds" `Quick test_cell_seed_stable_and_distinct;
          Alcotest.test_case "parallel matrix = sequential" `Slow test_parallel_matrix_matches_sequential;
          test_permutation_identity;
        ] );
    ]
