(* The Avis benchmark: one campaign workload per invocation.

   Usage (from the repository root):
     dune exec --cache=disabled ./perfbench/main.exe -- \
       --workload paper-matrix|avis-hunt|store-replay \
       --seed N --seconds S --trace 0|1

   A run sets up each instance of the workload (reporting the median
   set-up time), then runs whole rounds over the instances for up to S
   seconds, at least one, with tracing off, and reports each end-to-end
   metric as a median over the passes. With --trace 1 it then runs the
   first instance once more traced, measures the per-layer step split,
   and reports the per-layer metrics instead. Every cell's outcome is
   checked; a failed check makes the command exit 1. The last line of
   stdout is one JSON object with the keys correct, attempted, failed and
   metrics. Scratch files live under .perfbench/ in the working
   directory; the traced run's Chrome trace is kept there. perfbench/
   METRICS.md describes the workloads and every metric. *)

open Avis_core
open Perfbench
module W = Workloads

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
let now_s = Avis_util.Metrics.now_s

let usage () =
  prerr_endline
    "usage: main --workload paper-matrix|avis-hunt|store-replay --seed N \
     --seconds S --trace 0|1";
  exit 2

type args = { workload : string; seed : int; seconds : float; traced : bool }

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest when String.starts_with ~prefix:"--" flag ->
      go ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let known = [ "workload"; "seed"; "seconds"; "trace" ] in
  if List.exists (fun (k, _) -> not (List.mem k known)) kv then usage ();
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  { workload = get "workload"; seed = int "seed"; seconds = float_of_int seconds; traced = trace = 1 }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Checks. A cell run is one attempt, as is each check of a traced run;
   each attempt records at most one failure. *)
let attempted = ref 0
let failures = ref []
let fail ~label msg = failures := (label, msg) :: !failures

(* Reference digests per cell: the first run of each cell (its populate
   run, on store-replay) is the one every later run must match. *)
let references : (string, string) Hashtbl.t = Hashtbl.create 16

let check_digest ~key digest =
  match Hashtbl.find_opt references key with
  | None ->
    Hashtbl.replace references key digest;
    None
  | Some d when d = digest -> None
  | Some _ -> Some "result digest differs from the first run of this cell"

let cell_key ~base label = Printf.sprintf "%s (base %d)" label base

let cell_digest r = Result_digest.digest (Option.to_list (W.digest_cell r))

let check_run ~store ~base r =
  incr attempted;
  let label = cell_key ~base (W.label r.W.cell) in
  let store_unused =
    match r.W.outcome with
    | Campaign.Completed { Campaign.cache_stats = Some s; _ } ->
      store && s.Prefix_cache.store_hits = 0
    | Campaign.Completed { Campaign.cache_stats = None; _ } -> store
    | Campaign.Quarantined _ -> false
  in
  match W.check r with
  | Some m -> fail ~label m
  | None -> (
    match check_digest ~key:label (cell_digest r) with
    | Some m -> fail ~label m
    | None -> if store_unused then fail ~label "no restore was served from the store")

let check_pass ~store (p : W.pass) =
  List.iter (check_run ~store ~base:p.W.instance.W.base) p.W.runs

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* Check the benchmark's own provisioning against the campaign's, then
   fly each distinct firmware x mission pair of the instance once,
   fault-free, so a harness that cannot fly fails before the timed
   phase. *)
let smoke_setup (inst : W.instance) =
  let firsts =
    List.fold_left
      (fun acc (c : W.cell) ->
        let key =
          ( c.W.config.Campaign.policy.Avis_firmware.Policy.name,
            c.W.config.Campaign.workload.Workload.name )
        in
        if List.mem_assoc key acc then acc else (key, c) :: acc)
      [] inst.W.cells
  in
  List.iter
    (fun (_, (c : W.cell)) ->
      let label = cell_key ~base:inst.W.base (W.label c) in
      if not (Step_split.provisions_like_campaign c.W.config) then
        fail ~label "benchmark provisioning differs from the campaign's";
      let sim = Avis_sitl.Sim.create (Step_split.test_sim_config c.W.config) in
      if not (Workload.execute c.W.config.Campaign.workload sim) then
        fail ~label "fault-free smoke flight did not complete")
    (List.rev firsts)

let one_line s = String.map (function '\n' | '\t' -> ' ' | c -> c) s

(* Populate a fresh store with every cell of the instance, in a child
   process so that its heap stays out of the timed phase's peak. The
   child reports "digest TAB failure" per cell, in cell order. *)
let populate (inst : W.instance) ~dir =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      try
        let oc = Unix.out_channel_of_descr wr in
        List.iter
          (fun c ->
            let r = W.run_cell ~store_dir:dir c in
            Printf.fprintf oc "%s\t%s\n" (cell_digest r)
              (one_line (Option.value ~default:"" (W.check r))))
          inst.W.cells;
        close_out oc;
        0
      with e ->
        prerr_endline ("populate: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let lines = In_channel.input_lines ic in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    if status <> Unix.WEXITED 0 || List.compare_lengths lines inst.W.cells <> 0 then begin
      attempted := !attempted + List.length inst.W.cells;
      fail ~label:dir "the populate process did not report every cell"
    end
    else
      List.iter2
        (fun c line ->
          incr attempted;
          let label = cell_key ~base:inst.W.base (W.label c) in
          match String.split_on_char '\t' line with
          | [ digest; "" ] -> Option.iter (fail ~label) (check_digest ~key:label digest)
          | _ :: msg :: _ -> fail ~label ("populate: " ^ msg)
          | _ -> fail ~label ("populate: malformed report " ^ line))
        inst.W.cells lines

(* Set each instance up, timed; on store-replay each gets a fresh store
   of its own, which its timed passes then replay. *)
let setup (w : W.t) ~scratch =
  List.split
    (List.map
       (fun (inst : W.instance) ->
         Avis_util.Trace.span ~cat:"bench" "bench.setup" @@ fun () ->
         let t0 = now_s () in
         let dir =
           if w.W.store then begin
             let dir = Filename.concat scratch (Printf.sprintf "store-%d" inst.W.base) in
             Sys.mkdir dir 0o755;
             populate inst ~dir;
             Some dir
           end
           else begin
             smoke_setup inst;
             None
           end
         in
         (now_s () -. t0, (inst, dir)))
       w.W.instances)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Metric names and units are those BENCHMARK.json declares, in its
   order; it sits in the directory the benchmark runs from. *)
let declared section =
  let bad m =
    log "BENCHMARK.json: %s" m;
    exit 2
  in
  let open Avis_util.Json in
  match of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
  | exception Sys_error e -> bad e
  | Error e -> bad e
  | Ok json -> (
    match member section json with
    | Some (List metrics) ->
      List.map
        (fun m ->
          match (member "name" m, member "unit" m) with
          | Some (String name), Some (String unit) -> (name, unit)
          | _ -> bad ("a metric in " ^ section ^ " has no name or unit"))
        metrics
    | _ -> bad ("no " ^ section ^ " list"))

let mib bytes = float_of_int bytes /. 1048576.0

let results p =
  List.filter_map
    (fun r ->
      match r.W.outcome with
      | Campaign.Completed res -> Some (r, res)
      | Campaign.Quarantined _ -> None)
    p.W.runs

let pass_sum f p = List.fold_left (fun acc (r, res) -> acc +. f r res) 0.0 (results p)

let pass_max f p = List.fold_left (fun acc (r, res) -> Float.max acc (f r res)) 0.0 (results p)

let cache f _ res = match res.Campaign.cache_stats with Some s -> f s | None -> 0.0

let sims _ res = float_of_int res.Campaign.simulations

let sim_seconds r _ =
  Sim_account.sim_seconds r.W.obs.W.account ~speedup:r.W.cell.W.config.Campaign.speedup

(* Median over the passes of a per-pass figure. *)
let over passes f = Percentile.median (List.map f passes)

let end_to_end passes ~setup_times ~peak_heap_mb =
  let latencies = List.concat_map (fun p -> List.concat_map (fun r -> r.W.obs.W.latencies_ms) p.W.runs) passes in
  let p90 = Percentile.tail ~want:90 latencies in
  log "scenario latency: n=%d, p50 and p%d reported as scenario_ms_p50/_p90" p90.Percentile.n
    p90.Percentile.pct;
  [
    ("wall_s", over passes (fun p -> p.W.wall_s));
    ("setup_s", Percentile.median setup_times);
    ("scenarios_per_s", over passes (fun p -> pass_sum sims p /. p.W.wall_s));
    ("sim_s_per_s", over passes (fun p -> pass_sum sim_seconds p /. p.W.wall_s));
    ("scenario_ms_p50", Percentile.median latencies);
    ("scenario_ms_p90", p90.Percentile.value);
    ("peak_heap_mb", peak_heap_mb);
  ]

let campaign_layers passes =
  let obs f r _ = f r.W.obs in
  (* Every Avis cell must find something, so each contributes a sample. *)
  let first_findings =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun r -> if r.W.cell.W.expects_finding then r.W.obs.W.first_finding_s else None)
          p.W.runs)
      passes
  in
  let count f = over passes (pass_sum (fun _ res -> float_of_int (f res))) in
  let hits = over passes (pass_sum (cache (fun s -> float_of_int s.Prefix_cache.hits))) in
  let misses = over passes (pass_sum (cache (fun s -> float_of_int s.Prefix_cache.misses))) in
  [
    ("first_finding_s", if first_findings = [] then nan else Percentile.median first_findings);
    ("campaign.profile_s", over passes (pass_sum (obs (fun o -> o.W.profile_s))));
    ("campaign.scenarios", count (fun res -> res.Campaign.simulations));
    ("campaign.findings", count (fun res -> List.length res.Campaign.findings));
    ("campaign.inferences", count (fun res -> res.Campaign.inferences));
    ("search.next_s", over passes (pass_sum (obs (fun o -> o.W.next_s))));
    ("search.observe_s", over passes (pass_sum (obs (fun o -> o.W.observe_s))));
    ("campaign.exec_s", over passes (pass_sum (obs (fun o -> o.W.exec_s))));
    ( "gc.minor_words_per_scenario",
      over passes (fun p -> pass_sum (fun _ res -> res.Campaign.minor_words) p /. pass_sum sims p) );
    ("gc.major_collections", count (fun res -> res.Campaign.major_collections));
    ("cache.hit_ratio", if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
    ("cache.saved_sim_s", over passes (pass_sum (cache (fun s -> s.Prefix_cache.saved_sim_s))));
    ( "cache.resident_mb",
      over passes (pass_max (cache (fun s -> mib s.Prefix_cache.resident_bytes))) );
    ("cache.evictions", over passes (pass_sum (cache (fun s -> float_of_int s.Prefix_cache.evictions))));
    ("store.hits", over passes (pass_sum (cache (fun s -> float_of_int s.Prefix_cache.store_hits))));
    ("store.misses", over passes (pass_sum (cache (fun s -> float_of_int s.Prefix_cache.store_misses))));
    ("store.mb", over passes (pass_max (cache (fun s -> mib s.Prefix_cache.store_bytes))));
  ]

let span_metrics =
  [
    ("sim.steps_s", "sim.steps"); ("cache.checkpoint_s", "cache.checkpoint");
    ("cache.lookup_s", "cache.lookup");
    ("sim.snapshot_s", "sim.snapshot"); ("sim.restore_s", "sim.restore");
    ("monitor.check_s", "monitor.check"); ("sabre.candidates_s", "sabre.candidates");
  ]

(* One pass with tracing on; its Chrome trace is written, read back,
   validated, and reduced to per-span self times. The overhead compares
   it with an untraced pass of the same instance run just before it: the
   timed phase's first pass also paid for growing the heap from nothing. *)
let traced_pass ?store_dir (w : W.t) inst ~scratch =
  let module Trace = Avis_util.Trace in
  Gc.full_major ();
  let untraced = W.run_pass ?store_dir inst in
  check_pass ~store:w.W.store untraced;
  Gc.full_major ();
  Trace.reset ();
  Trace.set_enabled true;
  let p = W.run_pass ?store_dir inst in
  Trace.set_enabled false;
  check_pass ~store:w.W.store p;
  let path = Filename.concat scratch (w.W.name ^ ".trace.json") in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Avis_util.Json.to_string (Trace.to_chrome_json ())));
  Trace.reset ();
  incr attempted;
  let self =
    match
      Result.bind
        (Avis_util.Json.of_string (In_channel.with_open_text path In_channel.input_all))
        Trace_stats.spans_of_json
    with
    | Ok spans -> Trace_stats.self_times spans
    | Error m ->
      fail ~label:path ("invalid trace: " ^ m);
      []
  in
  log "trace: %s (%d span names)" path (List.length self);
  List.map
    (fun (metric, span) -> (metric, Option.value ~default:0.0 (List.assoc_opt span self)))
    span_metrics
  @ [ ("trace.overhead_frac", (p.W.wall_s /. untraced.W.wall_s) -. 1.0) ]

(* The first scenarios each cell ran, about eight in all. *)
let step_samples (p : W.pass) =
  let per_cell = max 1 (8 / List.length p.W.runs) in
  List.concat_map
    (fun r ->
      List.filteri (fun i _ -> i < per_cell) (List.rev r.W.obs.W.scenarios)
      |> List.map (fun s -> (r.W.cell.W.config, s)))
    p.W.runs

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let print_result metrics units =
  incr attempted;
  let bad =
    List.filter
      (fun name ->
        not (Option.fold ~none:false ~some:Float.is_finite (List.assoc_opt name metrics)))
      (List.map fst units)
    @ List.filter (fun name -> not (List.mem_assoc name units)) (List.map fst metrics)
  in
  if bad <> [] then
    fail ~label:"metrics" ("not measured, or not declared: " ^ String.concat ", " bad);
  let metric (name, unit) =
    let value = Option.value ~default:nan (List.assoc_opt name metrics) in
    log "  %-28s %.6g %s" name value unit;
    (name, Avis_util.Json.Assoc [ ("value", Avis_util.Json.Number value); ("unit", Avis_util.Json.String unit) ])
  in
  let metrics = List.map metric units in
  let failed = List.length !failures in
  List.iter (fun (label, m) -> log "FAILED %s: %s" label m) (List.rev !failures);
  log "cells attempted %d, failed %d (failed_frac %.17g)" !attempted failed
    (float_of_int failed /. float_of_int !attempted);
  print_endline
    (Avis_util.Json.to_string
       (Avis_util.Json.Assoc
          [
            ("correct", Avis_util.Json.Bool (failed = 0));
            ("attempted", Avis_util.Json.int !attempted);
            ("failed", Avis_util.Json.int failed);
            ("metrics", Avis_util.Json.Assoc metrics);
          ]));
  if failed > 0 then exit 1

let () =
  let args = parse_args () in
  let w =
    match W.of_name args.workload ~seed:args.seed with
    | Some w -> w
    | None ->
      log "unknown workload %S (%s)" args.workload (String.concat "|" W.names);
      exit 2
  in
  log "environment found: %s" (Env_pin.render (Env_pin.pin ()));
  Avis_util.Trace.set_enabled false;
  let scratch = Filename.concat (Sys.getcwd ()) ".perfbench" in
  if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
  let tmp = Filename.concat scratch (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Sys.mkdir tmp 0o755;
  at_exit (fun () -> rm_rf tmp);
  log "workload %s, seed %d, bases %s" w.W.name args.seed
    (String.concat ", " (List.map (fun i -> string_of_int i.W.base) w.W.instances));
  let setup_times, instances = setup w ~scratch:tmp in
  log "set-up: %s s" (String.concat ", " (List.map (Printf.sprintf "%.3f") setup_times));
  (* Whole rounds over the instances, so every run weighs each alike:
     one, then as many more as fit in --seconds. Each pass starts from a
     collected heap, so no pass pays for its predecessor's garbage. The
     major heap never shrinks, though, and every pass grows it a little
     further; the heap peak is therefore read after the first pass, where
     it reflects that pass's work alone. *)
  let t0 = now_s () in
  let peak_heap_mb = ref nan in
  let rec timed rounds =
    let round =
      List.map
        (fun (inst, store_dir) ->
          Gc.full_major ();
          let p = W.run_pass ?store_dir inst in
          if Float.is_nan !peak_heap_mb then
            peak_heap_mb :=
              float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
              /. 1048576.0;
          check_pass ~store:w.W.store p;
          p)
        instances
    in
    let rounds = round :: rounds in
    let elapsed = now_s () -. t0 in
    if elapsed +. (elapsed /. float_of_int (List.length rounds)) <= args.seconds then
      timed rounds
    else List.concat (List.rev rounds)
  in
  let passes = timed [] in
  log "%d passes of %s s" (List.length passes)
    (String.concat ", " (List.map (fun p -> Printf.sprintf "%.3f" p.W.wall_s) passes));
  List.iter
    (fun (inst, _) ->
      let p = List.find (fun p -> p.W.instance == inst) passes in
      List.iter
        (fun r ->
          log "  %-44s %6.2f s, profile %.3f s, %d scenarios"
            (cell_key ~base:inst.W.base (W.label r.W.cell))
            r.W.wall_s r.W.obs.W.profile_s (List.length r.W.obs.W.latencies_ms))
        p.W.runs;
      Printf.printf "base %d: result digest %s\n" inst.W.base
        (Result_digest.digest (List.filter_map W.digest_cell p.W.runs)))
    instances;
  if not args.traced then
    print_result (end_to_end passes ~setup_times ~peak_heap_mb:!peak_heap_mb)
      (declared "end_to_end")
  else begin
    let first = List.hd passes in
    let inst, store_dir = List.hd instances in
    let spans = traced_pass ?store_dir w inst ~scratch in
    incr attempted;
    let steps =
      match Step_split.measure (step_samples first) with
      | m -> m
      | exception Failure m ->
        fail ~label:"step split" m;
        []
    in
    print_result (steps @ campaign_layers passes @ spans) (declared "per_layer")
  end
