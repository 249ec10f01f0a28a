(* Hunt for sensor bugs against the ArduPilot personality on the auto-box
   mission — a small-budget version of the paper's main experiment, with
   all four approaches of Table III racing in parallel on a domain pool.
   Each campaign is an independent cell with its own seed and budget, so
   the findings are identical whatever AVIS_JOBS is set to.

   Run with: AVIS_JOBS=4 dune exec examples/fault_hunt.exe *)

open Avis_util
open Avis_core

let budget_s = 1500.0
let policy = Avis_firmware.Policy.apm
let workload = Workload.auto_box

let approaches =
  [
    ("Avis", fun ctx -> Sabre.make ctx);
    ("Strat-BFI", fun ctx -> Strat_bfi.make ctx);
    ("BFI", fun ctx -> Bfi.make ctx);
    ("Random", fun ctx -> Random_search.make ctx);
  ]

let hunt (name, strategy) =
  let config = Campaign.cell_config ~budget_s policy workload ~approach:name in
  let run = Campaign.run_cell config ~approach:name ~strategy in
  Metrics.emit ~event:run.Campaign.event run.Campaign.snapshot;
  (name, run)

let () =
  let jobs = Pool.jobs_of_env () in
  Printf.printf
    "Profiling %s on %s, then hunting with %d approaches on %d domain(s) \
     (%.0f s wall-clock budget each)...\n%!"
    policy.Avis_firmware.Policy.name workload.Workload.name
    (List.length approaches) jobs budget_s;
  let results = Pool.map ~jobs hunt approaches in
  List.iter
    (fun (name, run) ->
      match run.Campaign.outcome with
      | Campaign.Memo _ | Campaign.Quarantined _ ->
        Printf.printf "\n%s: no result (%s)\n" name run.Campaign.event
      | Campaign.Live (result, _) ->
        Printf.printf "\n%s: %d simulations, %d unsafe conditions found:\n" name
          result.Campaign.simulations
          (Campaign.unsafe_count result);
        List.iteri
          (fun i f ->
            Printf.printf "%2d. (simulation #%d)\n    %s\n" (i + 1)
              f.Campaign.simulation_index
              (Report.describe f.Campaign.report))
          result.Campaign.findings;
        Printf.printf "unsafe conditions by operating mode at injection:\n";
        List.iter
          (fun (bucket, n) ->
            Printf.printf "  %-8s %d\n" (Report.bucket_label bucket) n)
          (Campaign.count_by_bucket result))
    results;
  Metrics.summary (List.map (fun (_, run) -> run.Campaign.snapshot) results)
