(* The persistent checkpoint store and the binary snapshot codecs under it.

   Three layers, in dependency order: (1) [Sim.to_bytes]/[of_bytes] and the
   stepper codec must round-trip float-for-float — calm, windy, and with a
   fault already active; (2) [Checkpoint_store] must serve exactly what was
   put, treat every corruption as a miss, respect fingerprints and the byte
   budget; (3) a fresh [Prefix_cache] sharing a store directory must serve
   scenarios from disk with outcomes bit-identical to cold runs, even after
   the directory is vandalised. *)

open Avis_geo
open Avis_sensors
open Avis_firmware
open Avis_sitl
open Avis_core

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let temp_counter = ref 0

let temp_dir () =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "avis-test-store-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let windy_environment () =
  Avis_physics.Environment.create
    ~wind:
      (Some
         {
           Avis_physics.Environment.steady = Vec3.make 2.5 1.0 0.0;
           gust_stddev = 0.6;
           gust_correlation_s = 2.0;
         })
    ()

let sim_config ?(seed = 42) ?environment workload policy =
  let base = Sim.default_config policy in
  {
    base with
    Sim.seed;
    max_duration = workload.Workload.nominal_duration +. 60.0;
    environment =
      (match environment with
      | Some _ as e -> e
      | None -> workload.Workload.environment ());
  }

let cold_run ?seed ?environment ?(plan = []) workload policy =
  let sim = Sim.create ~plan (sim_config ?seed ?environment workload policy) in
  let passed = Workload.execute workload sim in
  Sim.outcome sim ~workload_passed:passed

(* The trace compared by IEEE-754 bit patterns: [=] on floats would call
   0.0 and -0.0 equal and nan unequal to itself; bits are the honest
   notion of "identical flight". *)
let trace_bits (o : Sim.outcome) =
  Array.to_list (Trace.samples o.Sim.trace)
  |> List.concat_map (fun (s : Trace.sample) ->
         [
           Int64.bits_of_float s.Trace.time;
           Int64.bits_of_float s.Trace.position.Vec3.x;
           Int64.bits_of_float s.Trace.position.Vec3.y;
           Int64.bits_of_float s.Trace.position.Vec3.z;
           Int64.bits_of_float s.Trace.acceleration.Vec3.x;
           Int64.bits_of_float s.Trace.acceleration.Vec3.y;
           Int64.bits_of_float s.Trace.acceleration.Vec3.z;
         ])

let fingerprint (o : Sim.outcome) =
  ( trace_bits o,
    Array.to_list (Array.map (fun (s : Trace.sample) -> s.Trace.mode)
      (Trace.samples o.Sim.trace)),
    o.Sim.crash,
    o.Sim.fence_breached,
    o.Sim.workload_passed,
    o.Sim.transitions,
    o.Sim.triggered_bugs,
    Int64.bits_of_float o.Sim.duration,
    o.Sim.sensor_reads )

let check_same_outcome msg a b =
  Alcotest.(check bool) msg true (fingerprint a = fingerprint b)

let fail_kind ?(n = 2) kind at =
  List.init n (fun index -> { Avis_hinj.Hinj.sensor = { Sensor.kind; index }; at })

let paused_run ?environment ?(plan = []) workload policy ~until =
  let sim = Sim.create ~plan (sim_config ?environment workload policy) in
  let st = Workload.Stepper.create workload in
  (match Workload.Stepper.run st sim ~until with
  | Workload.Stepper.Running -> ()
  | Workload.Stepper.Done _ -> Alcotest.fail "run finished before pause");
  (sim, st)

let finish ~plan sim_snap stepper_snap =
  let sim = Sim.restore ~plan sim_snap in
  let st = Workload.Stepper.restore stepper_snap in
  let passed =
    match Workload.Stepper.run st sim ~until:infinity with
    | Workload.Stepper.Done p -> p
    | Workload.Stepper.Running -> false
  in
  Sim.outcome sim ~workload_passed:passed

(* ------------------------------------------------------------------ *)
(* Snapshot codec round-trips                                           *)
(* ------------------------------------------------------------------ *)

(* Pause mid-flight, push both snapshots through their byte codecs, and
   finish the flight from the decoded state with the fault plan
   substituted in. The decoded run must be bit-identical to the cold
   faulty run, and the codec must be canonical (decode; re-encode yields
   the same bytes). *)
let roundtrip_case ?environment ~pause_at ~fault_at workload policy =
  let plan = fail_kind Sensor.Gps fault_at in
  let cold = cold_run ?environment ~plan workload policy in
  let sim, st = paused_run ?environment ~plan workload policy ~until:pause_at in
  let sim_bytes = Sim.to_bytes (Sim.snapshot sim) in
  let st_bytes = Workload.Stepper.to_bytes (Workload.Stepper.snapshot st) in
  let sim_snap = Sim.of_bytes sim_bytes in
  let st_snap = Workload.Stepper.of_bytes st_bytes in
  Alcotest.(check bool) "sim codec canonical" true
    (String.equal (Sim.to_bytes sim_snap) sim_bytes);
  Alcotest.(check bool) "stepper codec canonical" true
    (String.equal (Workload.Stepper.to_bytes st_snap) st_bytes);
  let decoded = finish ~plan sim_snap st_snap in
  check_same_outcome "decoded snapshot = cold run" cold decoded

let test_roundtrip_calm () =
  roundtrip_case ~pause_at:12.0 ~fault_at:20.0 Workload.quickstart Policy.apm

let test_roundtrip_windy () =
  roundtrip_case
    ~environment:(windy_environment ())
    ~pause_at:15.0 ~fault_at:25.0 Workload.quickstart Policy.apm

let test_roundtrip_mid_fault () =
  (* Pause *after* the injection: the snapshot carries a failed sensor,
     active bug state and a partially degraded estimator. *)
  roundtrip_case ~pause_at:27.0 ~fault_at:20.0 Workload.quickstart Policy.apm

let test_roundtrip_auto_box_px4 () =
  roundtrip_case ~pause_at:30.0 ~fault_at:45.0 Workload.auto_box Policy.px4

let qcheck_roundtrip =
  QCheck.Test.make ~count:6 ~name:"sim+stepper codec round-trips at any pause"
    QCheck.(pair (float_range 2.0 20.0) (float_range 0.0 1.0))
    (fun (pause_at, frac) ->
      let fault_at = pause_at +. ((40.0 -. pause_at) *. frac) +. 1.0 in
      let workload = Workload.quickstart and policy = Policy.apm in
      let plan = fail_kind ~n:1 Sensor.Barometer fault_at in
      let cold = cold_run ~plan workload policy in
      let sim, st = paused_run ~plan workload policy ~until:pause_at in
      let sim_bytes = Sim.to_bytes (Sim.snapshot sim) in
      let st_bytes = Workload.Stepper.to_bytes (Workload.Stepper.snapshot st) in
      let sim_snap = Sim.of_bytes sim_bytes in
      let st_snap = Workload.Stepper.of_bytes st_bytes in
      String.equal (Sim.to_bytes sim_snap) sim_bytes
      && String.equal (Workload.Stepper.to_bytes st_snap) st_bytes
      && fingerprint (finish ~plan sim_snap st_snap) = fingerprint cold)

let test_of_bytes_rejects_garbage () =
  (match Sim.of_bytes "" with
  | exception Avis_util.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "empty input decoded");
  let sim, _ = paused_run Workload.quickstart Policy.apm ~until:5.0 in
  let bytes = Sim.to_bytes (Sim.snapshot sim) in
  let truncated = String.sub bytes 0 (String.length bytes / 2) in
  (match Sim.of_bytes truncated with
  | exception Avis_util.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated snapshot decoded")

(* Golden profiling runs travel through [Sim.encode_outcome]: every field
   must come back, floats by their bits (transition times included, which
   [fingerprint] compares with [=]). *)
let outcome_bits (o : Sim.outcome) =
  ( fingerprint o,
    List.map
      (fun (tr : Avis_hinj.Hinj.transition) ->
        Int64.bits_of_float tr.Avis_hinj.Hinj.time)
      o.Sim.transitions )

let clean_outcome = lazy (cold_run Workload.quickstart Policy.apm)
let encode_outcome o = Avis_util.Codec.to_string Sim.encode_outcome o
let decode_outcome s = Avis_util.Codec.of_string Sim.decode_outcome s

let test_outcome_roundtrip () =
  let o = Lazy.force clean_outcome in
  Alcotest.(check bool) "fixture is clean" true
    (o.Sim.workload_passed && o.Sim.crash = None);
  let bytes = encode_outcome o in
  let decoded = decode_outcome bytes in
  Alcotest.(check bool) "every field, floats by bits" true
    (outcome_bits o = outcome_bits decoded);
  Alcotest.(check bool) "codec canonical" true
    (String.equal (encode_outcome decoded) bytes)

let test_outcome_rejects_damage () =
  let o = Lazy.force clean_outcome in
  let bytes = encode_outcome o in
  let corrupt name s =
    match decode_outcome s with
    | exception Avis_util.Codec.Corrupt _ -> ()
    | _ -> Alcotest.failf "%s decoded" name
  in
  let n = String.length bytes in
  List.iter
    (fun cut -> corrupt (Printf.sprintf "truncated to %d of %d" cut n)
        (String.sub bytes 0 cut))
    (List.sort_uniq compare
       (List.init 64 (fun i -> i * n / 64) @ [ 1; 2; 3; n - 8; n - 1 ]));
  (* Version byte, then the passed and crash flags. *)
  List.iter
    (fun at ->
      let b = Bytes.of_string bytes in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 1));
      corrupt (Printf.sprintf "byte %d flipped" at) (Bytes.to_string b))
    [ 0; 1; 2 ];
  corrupt "failed workload" (encode_outcome { o with Sim.workload_passed = false });
  corrupt "crashed run"
    (encode_outcome { o with Sim.crash = Some Avis_physics.World.Tipover })

(* ------------------------------------------------------------------ *)
(* Hostile snapshot bytes                                               *)
(* ------------------------------------------------------------------ *)

(* Decoders face arbitrary disk bytes: partial writes, bit rot, other
   processes' files. Whatever the damage, the only observable failure is
   [Codec.Corrupt] — in particular no [Out_of_memory] or [Invalid_argument]
   from allocating a length prefix the buffer cannot possibly back. A
   damaged buffer that still decodes cleanly is fine (a flipped float bit
   is just a different float); raising anything else is the bug. *)

let exemplar_bytes =
  lazy
    (let sim, st = paused_run Workload.quickstart Policy.apm ~until:8.0 in
     ( Sim.to_bytes (Sim.snapshot sim),
       Workload.Stepper.to_bytes (Workload.Stepper.snapshot st) ))

let decoders =
  [
    ("Sim.of_bytes", fun s -> ignore (Sim.of_bytes s));
    ("Stepper.of_bytes", fun s -> ignore (Workload.Stepper.of_bytes s));
    ( "Codec string+floats",
      fun s ->
        let r = Avis_util.Codec.reader s in
        ignore (Avis_util.Codec.r_bytes r);
        ignore (Avis_util.Codec.r_float_array r) );
  ]

let only_corrupt bytes =
  List.for_all
    (fun (name, decode) ->
      match decode bytes with
      | () -> true
      | exception Avis_util.Codec.Corrupt _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "%s raised %s, not Corrupt" name
          (Printexc.to_string e))
    decoders

let qcheck_fuzz_truncated =
  QCheck.Test.make ~count:60 ~name:"truncated snapshot bytes: only Corrupt"
    QCheck.(pair (float_range 0.0 1.0) bool)
    (fun (frac, stepper) ->
      let sim_b, st_b = Lazy.force exemplar_bytes in
      let bytes = if stepper then st_b else sim_b in
      let cut =
        min (String.length bytes - 1)
          (int_of_float (frac *. float_of_int (String.length bytes)))
      in
      only_corrupt (String.sub bytes 0 cut))

let qcheck_fuzz_bitflip =
  QCheck.Test.make ~count:120 ~name:"bit-flipped snapshot bytes: only Corrupt"
    QCheck.(triple (float_range 0.0 1.0) (int_range 0 7) bool)
    (fun (frac, bit, stepper) ->
      let sim_b, st_b = Lazy.force exemplar_bytes in
      let bytes = if stepper then st_b else sim_b in
      let i =
        min (String.length bytes - 1)
          (int_of_float (frac *. float_of_int (String.length bytes)))
      in
      let b = Bytes.of_string bytes in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      only_corrupt (Bytes.to_string b))

let qcheck_fuzz_outcome =
  QCheck.Test.make ~count:120 ~name:"bit-flipped outcome bytes: only Corrupt"
    QCheck.(pair (float_range 0.0 1.0) (int_range 0 7))
    (fun (frac, bit) ->
      let bytes = encode_outcome (Lazy.force clean_outcome) in
      let i =
        min (String.length bytes - 1)
          (int_of_float (frac *. float_of_int (String.length bytes)))
      in
      let b = Bytes.of_string bytes in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      match decode_outcome (Bytes.to_string b) with
      | _ -> true
      | exception Avis_util.Codec.Corrupt _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "decode_outcome raised %s, not Corrupt"
          (Printexc.to_string e))

let qcheck_fuzz_random =
  QCheck.Test.make ~count:120 ~name:"random buffers: only Corrupt"
    QCheck.(string_gen_of_size (Gen.int_range 0 512) Gen.char)
    only_corrupt

(* ------------------------------------------------------------------ *)
(* Checkpoint store                                                     *)
(* ------------------------------------------------------------------ *)

let make_store ?(fingerprint = "fp") ?store_mb ~dir () =
  Checkpoint_store.create ~fingerprint ?store_mb ~dir ~config_key:"cfg" ()

let put store ~fault_key ~time payload =
  Checkpoint_store.put store ~fault_key ~time ~payload:(lazy payload)

let test_store_put_lookup () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~dir () in
  put store ~fault_key:"" ~time:10.0 "clean@10";
  put store ~fault_key:"" ~time:20.0 "clean@20";
  put store ~fault_key:"gps@x" ~time:15.0 "faulty@15";
  (match Checkpoint_store.lookup store ~fault_key:"" ~before:15.0 with
  | Some (t, p) ->
    Alcotest.(check (float 0.0)) "time" 10.0 t;
    Alcotest.(check string) "payload" "clean@10" p
  | None -> Alcotest.fail "expected clean@10");
  (match Checkpoint_store.lookup store ~fault_key:"" ~before:infinity with
  | Some (t, _) -> Alcotest.(check (float 0.0)) "latest first" 20.0 t
  | None -> Alcotest.fail "expected clean@20");
  (* [before] is strict: a checkpoint at exactly the injection time could
     already contain the fault's first effects. *)
  Alcotest.(check bool) "strictly before" true
    (Checkpoint_store.lookup store ~fault_key:"" ~before:10.0 = None);
  (match Checkpoint_store.lookup store ~fault_key:"gps@x" ~before:infinity with
  | Some (_, p) -> Alcotest.(check string) "keys are isolated" "faulty@15" p
  | None -> Alcotest.fail "expected faulty@15");
  Alcotest.(check bool) "unknown key" true
    (Checkpoint_store.lookup store ~fault_key:"other" ~before:infinity = None)

let test_store_put_is_idempotent_and_lazy () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~dir () in
  put store ~fault_key:"" ~time:10.0 "first";
  let forced = ref false in
  Checkpoint_store.put store ~fault_key:"" ~time:10.0
    ~payload:
      (lazy
        (forced := true;
         "second"));
  Alcotest.(check bool) "existing file skips serialisation" false !forced;
  match Checkpoint_store.lookup store ~fault_key:"" ~before:infinity with
  | Some (_, p) -> Alcotest.(check string) "first write wins" "first" p
  | None -> Alcotest.fail "expected a checkpoint"

let ckpt_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
  |> List.map (Filename.concat dir)

let rewrite_byte ~at f path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string data in
  Bytes.set b at (f (Bytes.get b at));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let damage_file ~at = rewrite_byte ~at (fun c -> Char.chr (Char.code c lxor 0xFF))
let set_byte ~at c = rewrite_byte ~at (fun _ -> c)

let truncate_file ~len path =
  let ic = open_in_bin path in
  let data = really_input_string ic (min len (in_channel_length ic)) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let test_store_corruption_is_a_miss () =
  let payload = String.init 256 (fun i -> Char.chr (i land 0xFF)) in
  let check_damaged name damage =
    with_temp_dir @@ fun dir ->
    let store = make_store ~dir () in
    put store ~fault_key:"" ~time:10.0 payload;
    (match ckpt_files dir with
    | [ path ] -> damage path
    | files ->
      Alcotest.fail (Printf.sprintf "expected 1 file, got %d" (List.length files)));
    Alcotest.(check bool) (name ^ " is a miss") true
      (Checkpoint_store.lookup store ~fault_key:"" ~before:infinity = None);
    (* The damaged file must be gone, not retried forever. *)
    Alcotest.(check int) (name ^ " deleted") 0 (List.length (ckpt_files dir))
  in
  check_damaged "truncated header" (truncate_file ~len:12);
  check_damaged "truncated payload" (truncate_file ~len:100);
  check_damaged "bit-flipped payload" (damage_file ~at:60);
  check_damaged "bit-flipped checksum" (damage_file ~at:8);
  check_damaged "bad magic" (damage_file ~at:0);
  (* A file of the version-1 frame, whose checksum did not cover the
     name, must not be trusted under the version-2 reader. *)
  check_damaged "version-1 frame" (set_byte ~at:4 '\001')

let test_store_corrupt_newest_falls_back_to_older () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~dir () in
  put store ~fault_key:"" ~time:10.0 "older";
  put store ~fault_key:"" ~time:20.0 "newer";
  let newer =
    List.find
      (fun p ->
        let ic = open_in_bin p in
        let d = really_input_string ic (in_channel_length ic) in
        close_in ic;
        String.length d > 29 && String.sub d 29 (String.length d - 29) = "newer")
      (ckpt_files dir)
  in
  damage_file ~at:30 newer;
  match Checkpoint_store.lookup store ~fault_key:"" ~before:infinity with
  | Some (t, p) ->
    Alcotest.(check (float 0.0)) "older served" 10.0 t;
    Alcotest.(check string) "older payload" "older" p
  | None -> Alcotest.fail "expected the older checkpoint"

let test_store_stale_fingerprint_invisible () =
  with_temp_dir @@ fun dir ->
  let old_build = make_store ~fingerprint:"build-a" ~dir () in
  put old_build ~fault_key:"" ~time:10.0 "from build a";
  let new_build = make_store ~fingerprint:"build-b" ~dir () in
  Alcotest.(check bool) "other build's checkpoints invisible" true
    (Checkpoint_store.lookup new_build ~fault_key:"" ~before:infinity = None);
  Checkpoint_store.count_miss new_build;
  let s = Checkpoint_store.stats new_build in
  Alcotest.(check int) "counted as a miss" 1 s.Checkpoint_store.misses;
  Alcotest.(check int) "no hits" 0 s.Checkpoint_store.hits

let test_store_eviction_bounded () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~store_mb:1 ~dir () in
  let big = String.make 700_000 'x' in
  put store ~fault_key:"" ~time:10.0 big;
  put store ~fault_key:"" ~time:20.0 (String.make 700_000 'y');
  let s = Checkpoint_store.stats store in
  Alcotest.(check bool) "bytes within budget" true
    (s.Checkpoint_store.bytes <= 1024 * 1024);
  Alcotest.(check bool) "evicted something" true
    (s.Checkpoint_store.evictions > 0)

let test_store_eviction_mtime_tiebreak () =
  (* Filesystems with 1 s timestamp granularity make equal-mtime
     checkpoints routine. The eviction order must then fall back to path
     order, so the surviving set is a function of the store's contents,
     not of readdir order or sub-second timer luck. *)
  with_temp_dir @@ fun dir ->
  let store = make_store ~store_mb:1 ~dir () in
  put store ~fault_key:"" ~time:10.0 (String.make 400_000 'a');
  put store ~fault_key:"" ~time:20.0 (String.make 400_000 'b');
  let t = 1_000_000_000.0 in
  List.iter (fun p -> Unix.utimes p t t) (ckpt_files dir);
  let tied = List.sort compare (ckpt_files dir) in
  put store ~fault_key:"" ~time:30.0 (String.make 400_000 'c');
  let survivors = ckpt_files dir in
  match tied with
  | [ first; second ] ->
    Alcotest.(check int) "exactly one eviction" 2 (List.length survivors);
    Alcotest.(check bool) "lexicographically-first of the tie evicted" false
      (List.mem first survivors);
    Alcotest.(check bool) "lexicographically-second of the tie survives" true
      (List.mem second survivors)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 tied files, got %d" (List.length l))

let test_store_mb_guard () =
  (* Malformed and non-positive budgets must warn and fall back to the
     default rather than silently zeroing the store. Observable effect: a
     store created with store_mb:0 still retains small checkpoints (a zero
     budget would evict everything on every put). *)
  with_temp_dir @@ fun dir ->
  let store = make_store ~store_mb:0 ~dir () in
  put store ~fault_key:"" ~time:10.0 "kept";
  (match Checkpoint_store.lookup store ~fault_key:"" ~before:infinity with
  | Some (_, p) -> Alcotest.(check string) "retained under default budget" "kept" p
  | None -> Alcotest.fail "zero budget was not replaced by the default");
  Unix.putenv "AVIS_STORE_MB" "banana";
  (* putenv can't unset; park the variable on the default so later stores
     in this process neither warn nor change behaviour. *)
  Fun.protect
    ~finally:(fun () -> Unix.putenv "AVIS_STORE_MB" "1024")
    (fun () ->
      with_temp_dir @@ fun dir2 ->
      let store2 = make_store ~dir:dir2 () in
      put store2 ~fault_key:"" ~time:10.0 "kept";
      Alcotest.(check bool) "malformed env falls back" true
        (Checkpoint_store.lookup store2 ~fault_key:"" ~before:infinity <> None))

let test_cache_mb_guard () =
  (* Satellite regression: AVIS_CACHE_MB=0 (or cache_mb:0) used to be
     accepted, silently making every capture evict itself. With the guard
     the default budget applies, so a repeated scenario is served from
     memory. *)
  let workload = Workload.quickstart and policy = Policy.apm in
  let make_sim ~scenario =
    Sim.create
      ~plan:(Scenario.to_plan scenario)
      ~link_outages:(Scenario.link_outages scenario)
      (sim_config workload policy)
  in
  let cache =
    Prefix_cache.create ~cache_mb:0 ~workload ~make_sim
      ~checkpoint_times:(List.init 30 (fun i -> float_of_int (i + 1)))
      ()
  in
  let scenario =
    Scenario.of_faults
      [ Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index = 0 } 25.0 ]
  in
  let a = Prefix_cache.execute cache ~scenario in
  let b = Prefix_cache.execute cache ~scenario in
  check_same_outcome "deterministic" a b;
  let s = Prefix_cache.stats cache in
  Alcotest.(check bool) "default budget kept the checkpoints" true
    (s.Prefix_cache.hits >= 1);
  Alcotest.(check int) "no self-evictions" 0 s.Prefix_cache.evictions

(* Two handles on one directory in one process — cells on parallel
   domains — must never rename each other's bytes into place: every key
   ends up with its own payload, and none goes missing. *)
let test_store_two_domains () =
  with_temp_dir @@ fun dir ->
  let keys = 3000 in
  let key d i = Printf.sprintf "d%d-%d" d i in
  let payload k = k ^ "|" ^ String.make 64 'p' in
  let writer d () =
    let store = make_store ~dir () in
    for i = 1 to keys do
      put store ~fault_key:(key d i) ~time:1.0 (payload (key d i))
    done
  in
  let domains = List.map (fun d -> Domain.spawn (writer d)) [ 0; 1 ] in
  List.iter Domain.join domains;
  let files = ckpt_files dir in
  Alcotest.(check int) "no key missing" (2 * keys) (List.length files);
  (* Read each file back on its own — linked alone into an empty
     directory, so a lookup lists one entry — under the key its payload
     names: it must serve exactly that payload. *)
  with_temp_dir @@ fun alone ->
  let store = make_store ~dir:alone () in
  let foreign =
    List.filter
      (fun path ->
        let ic = open_in_bin path in
        let data = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let stored = String.sub data 29 (String.length data - 29) in
        let k = String.sub stored 0 (String.index stored '|') in
        let copy = Filename.concat alone (Filename.basename path) in
        Unix.link path copy;
        let served =
          Checkpoint_store.lookup store ~fault_key:k ~before:infinity
        in
        (try Sys.remove copy with Sys_error _ -> ());
        served <> Some (1.0, stored))
      files
  in
  Alcotest.(check int) "no key holds another key's payload" 0
    (List.length foreign)

let test_store_misnamed_file_fails_closed () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~dir () in
  put store ~fault_key:"a" ~time:10.0 "payload of a";
  put store ~fault_key:"b" ~time:10.0 "payload of b";
  (match List.sort compare (ckpt_files dir) with
  | [ x; y ] ->
    (* Whichever file belongs to "a", moving it over the other leaves one
       file whose bytes were written under a different name. *)
    Sys.rename x y
  | l -> Alcotest.failf "expected 2 files, got %d" (List.length l));
  let served k = Checkpoint_store.lookup store ~fault_key:k ~before:infinity in
  (match (served "a", served "b") with
  | None, None -> ()
  | Some (_, p), None | None, Some (_, p) ->
    Alcotest.failf "a misnamed file was served: %S" p
  | Some _, Some _ -> Alcotest.fail "two files served after one was moved");
  Alcotest.(check int) "the misnamed file is deleted" 0
    (List.length (ckpt_files dir))

let test_store_profile_roundtrip () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~dir () in
  Alcotest.(check bool) "absent" true
    (Checkpoint_store.lookup_profile store ~key:"golden" = None);
  Checkpoint_store.put_profile store ~key:"golden" ~payload:"runs v1";
  Checkpoint_store.put_profile store ~key:"golden" ~payload:"runs v2";
  Alcotest.(check (option string)) "latest put served" (Some "runs v2")
    (Checkpoint_store.lookup_profile store ~key:"golden");
  Alcotest.(check (option string)) "keys are isolated" None
    (Checkpoint_store.lookup_profile store ~key:"other");
  (* Profiles ignore the handle's config key but not the fingerprint. *)
  let same_build =
    Checkpoint_store.create ~fingerprint:"fp" ~dir ~config_key:"other-cfg" ()
  in
  Alcotest.(check (option string)) "config key plays no part" (Some "runs v2")
    (Checkpoint_store.lookup_profile same_build ~key:"golden");
  Alcotest.(check (option string)) "other build cannot see it" None
    (Checkpoint_store.lookup_profile (make_store ~fingerprint:"fp2" ~dir ())
       ~key:"golden");
  let s = Checkpoint_store.stats store in
  Alcotest.(check (pair int int)) "not counted as hits or misses" (0, 0)
    (s.Checkpoint_store.hits, s.Checkpoint_store.misses)

(* ------------------------------------------------------------------ *)
(* Prefix cache over a shared store                                     *)
(* ------------------------------------------------------------------ *)

let quickstart_cache ~store_dir =
  let workload = Workload.quickstart and policy = Policy.apm in
  let make_sim ~scenario =
    Sim.create
      ~plan:(Scenario.to_plan scenario)
      ~link_outages:(Scenario.link_outages scenario)
      (sim_config workload policy)
  in
  ( Prefix_cache.create
      ?store:(Prefix_cache.open_store ~store_dir ~workload ~make_sim ())
      ~workload ~make_sim
      ~checkpoint_times:(List.init 30 (fun i -> float_of_int (i + 1)))
      (),
    make_sim,
    workload )

let store_scenarios () =
  [
    Scenario.empty;
    Scenario.of_faults
      [
        Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index = 0 } 25.0;
        Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index = 1 } 25.0;
      ];
    Scenario.of_faults
      [ Scenario.sensor_fault { Sensor.kind = Sensor.Barometer; index = 0 } 12.5 ];
  ]

let check_cache_against_cold ~msg cache make_sim workload =
  List.iter
    (fun scenario ->
      let served = Prefix_cache.execute cache ~scenario in
      let sim = make_sim ~scenario in
      let passed = Workload.execute workload sim in
      let cold = Sim.outcome sim ~workload_passed:passed in
      check_same_outcome msg cold served)
    (store_scenarios ())

let test_store_shared_across_instances () =
  with_temp_dir @@ fun store_dir ->
  let cache1, make_sim, workload = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"first instance = cold" cache1 make_sim workload;
  let s1 = Prefix_cache.stats cache1 in
  Alcotest.(check bool) "first instance wrote checkpoints" true
    (s1.Prefix_cache.store_bytes > 0);
  (* A fresh instance — empty memory, same dir — is the warm-process path:
     everything it restores comes off disk. *)
  let cache2, make_sim, workload = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"second instance = cold" cache2 make_sim
    workload;
  let s2 = Prefix_cache.stats cache2 in
  Alcotest.(check bool) "second instance served from the store" true
    (s2.Prefix_cache.store_hits > 0);
  Alcotest.(check bool) "second instance skipped simulated time" true
    (s2.Prefix_cache.saved_sim_s > 0.0)

(* Regression: a fresh instance must fork each scenario from the
   checkpoint the first instance wrote under that scenario's own fault
   prefix, not from the clean prefix just before the shared first fault.
   The scenarios have the shape a SABRE campaign produces — first faults
   at one time, no empty scenario — so the clean prefix ends at 12.5 s and
   everything after it is per-scenario. *)
let test_store_serves_own_prefix () =
  with_temp_dir @@ fun store_dir ->
  let scenarios =
    [
      Scenario.of_faults
        [
          Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index = 0 } 12.5;
          Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index = 1 } 12.5;
        ];
      Scenario.of_faults
        [ Scenario.sensor_fault { Sensor.kind = Sensor.Barometer; index = 0 } 12.5 ];
    ]
  in
  let cache1, _, _ = quickstart_cache ~store_dir in
  List.iter (fun scenario -> ignore (Prefix_cache.execute cache1 ~scenario)) scenarios;
  let cache2, make_sim, workload = quickstart_cache ~store_dir in
  let saved () = (Prefix_cache.stats cache2).Prefix_cache.saved_sim_s in
  let resimulated =
    List.map
      (fun scenario ->
        let before = saved () in
        let served = Prefix_cache.execute cache2 ~scenario in
        let sim = make_sim ~scenario in
        let passed = Workload.execute workload sim in
        check_same_outcome "served = cold" (Sim.outcome sim ~workload_passed:passed)
          served;
        (served.Sim.duration, served.Sim.duration -. (saved () -. before)))
      scenarios
  in
  Alcotest.(check int) "every scenario served from the store" 2
    (Prefix_cache.stats cache2).Prefix_cache.store_hits;
  List.iteri
    (fun i (duration, resim) ->
      if resim > 1.0 then
        Alcotest.failf "scenario %d re-simulated %.2f s of %.2f s (grid 1 s)" i
          resim duration)
    resimulated

let gps2_at t =
  Scenario.of_faults
    [
      Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index = 0 } t;
      Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index = 1 } t;
    ]

let compass_at t =
  Scenario.of_faults
    [ Scenario.sensor_fault { Sensor.kind = Sensor.Compass; index = 0 } t ]

(* Regression: a fresh instance whose memory already holds an applicable
   but early checkpoint must still take the store's much later one. After
   compass@20 (served from the store's clean@12 and re-captured from
   there), memory holds clean@12 for gps×2@12.5, while the store holds
   that scenario's own checkpoints up to its end. *)
let test_store_beats_worse_memory () =
  with_temp_dir @@ fun store_dir ->
  let cache1, _, _ = quickstart_cache ~store_dir in
  ignore (Prefix_cache.execute cache1 ~scenario:(gps2_at 12.5));
  let cache2, make_sim, workload = quickstart_cache ~store_dir in
  let stats () = Prefix_cache.stats cache2 in
  ignore (Prefix_cache.execute cache2 ~scenario:(compass_at 20.0));
  let hits_before = (stats ()).Prefix_cache.store_hits in
  let saved_before = (stats ()).Prefix_cache.saved_sim_s in
  let scenario = gps2_at 12.5 in
  let served = Prefix_cache.execute cache2 ~scenario in
  let sim = make_sim ~scenario in
  let passed = Workload.execute workload sim in
  check_same_outcome "served = cold" (Sim.outcome sim ~workload_passed:passed)
    served;
  Alcotest.(check int) "one more store hit" (hits_before + 1)
    (stats ()).Prefix_cache.store_hits;
  let resim =
    served.Sim.duration -. ((stats ()).Prefix_cache.saved_sim_s -. saved_before)
  in
  if resim > 1.0 then
    Alcotest.failf "gps x2 @ 12.5 re-simulated %.2f s of %.2f s" resim
      served.Sim.duration

(* A lookup won by a longer fault prefix reads and touches only the
   winner: the shorter prefix's stored checkpoint keeps its mtime, so
   files nobody forks from age out of the store first. *)
let test_store_reads_only_winner () =
  with_temp_dir @@ fun store_dir ->
  let scenario = gps2_at 12.5 in
  let cache1, _, _ = quickstart_cache ~store_dir in
  ignore (Prefix_cache.execute cache1 ~scenario);
  let old = 1_000_000_000.0 in
  List.iter (fun p -> Unix.utimes p old old) (ckpt_files store_dir);
  let cache2, _, _ = quickstart_cache ~store_dir in
  ignore (Prefix_cache.execute cache2 ~scenario);
  Alcotest.(check int) "served from the store" 1
    (Prefix_cache.stats cache2).Prefix_cache.store_hits;
  let touched =
    List.filter
      (fun p -> (Unix.stat p).Unix.st_mtime <> old)
      (ckpt_files store_dir)
  in
  (* The second run wrote nothing new (every capture already existed), so
     the one touched file is the winner. *)
  Alcotest.(check int) "only the winning file touched" 1 (List.length touched)

let test_store_vandalised_dir_still_identical () =
  with_temp_dir @@ fun store_dir ->
  let cache1, make_sim1, workload1 = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"populate" cache1 make_sim1 workload1;
  (* Truncate every checkpoint: the next instance must detect each one,
     count misses, and run cold with bit-identical outcomes. *)
  List.iter (fun p -> truncate_file ~len:40 p) (ckpt_files store_dir);
  let cache2, make_sim, workload = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"vandalised store = cold" cache2 make_sim
    workload;
  let s = Prefix_cache.stats cache2 in
  Alcotest.(check int) "nothing served from disk" 0 s.Prefix_cache.store_hits;
  Alcotest.(check bool) "misses counted" true (s.Prefix_cache.store_misses > 0)

(* ------------------------------------------------------------------ *)
(* Golden profile served by the store                                   *)
(* ------------------------------------------------------------------ *)

let mini_config ?(seed = 11) () =
  {
    (Campaign.default_config Policy.apm Workload.quickstart) with
    Campaign.budget_s = 120.0;
    prefix_cache = true;
    seed;
  }

(* Run [f] traced and return its result with the names of the spans it
   recorded. *)
let traced f =
  Avis_util.Trace.reset ();
  Avis_util.Trace.set_enabled true;
  let v =
    Fun.protect ~finally:(fun () -> Avis_util.Trace.set_enabled false) f
  in
  let names =
    List.map (fun r -> r.Avis_util.Trace.span_name) (Avis_util.Trace.summary ())
  in
  Avis_util.Trace.reset ();
  (v, names)

let campaign_digest ?store_dir config =
  let cache = Option.map (fun dir -> Campaign.make_cache ~store_dir:dir config) store_dir in
  Campaign.result_digest config ~approach:"sabre"
    (Campaign.run ?cache config ~strategy:Sabre.make)

let prof_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".prof")
  |> List.map (Filename.concat dir)

let check_spans ~served names =
  Alcotest.(check bool) "store.profile span" served
    (List.mem "store.profile" names);
  Alcotest.(check bool) "campaign.profile span" (not served)
    (List.mem "campaign.profile" names)

let test_profile_served_warm () =
  with_temp_dir @@ fun store_dir ->
  let config = mini_config () in
  let cold = campaign_digest config in
  let populate, names = traced (fun () -> campaign_digest ~store_dir config) in
  check_spans ~served:false names;
  Alcotest.(check int) "one profile written" 1 (List.length (prof_files store_dir));
  let warm, names = traced (fun () -> campaign_digest ~store_dir config) in
  check_spans ~served:true names;
  Alcotest.(check string) "populating run = cold" cold populate;
  Alcotest.(check string) "warm run = cold" cold warm

let test_profile_vandalised_reflown () =
  with_temp_dir @@ fun store_dir ->
  let config = mini_config () in
  let cold = campaign_digest ~store_dir config in
  (match prof_files store_dir with
  | [ path ] -> damage_file ~at:100 path
  | l -> Alcotest.failf "expected 1 profile file, got %d" (List.length l));
  let again, names = traced (fun () -> campaign_digest ~store_dir config) in
  check_spans ~served:false names;
  Alcotest.(check string) "re-flown run = cold" cold again;
  Alcotest.(check int) "replaced" 1 (List.length (prof_files store_dir));
  let warm, names = traced (fun () -> campaign_digest ~store_dir config) in
  check_spans ~served:true names;
  Alcotest.(check string) "served from the replacement" cold warm

(* Each identity change must miss (fly and write a new file); the
   unchanged config must hit. Profiles are read through
   [profile_and_context] directly, with two profiling runs to stay cheap. *)
let test_profile_identities_isolated () =
  with_temp_dir @@ fun dir ->
  let base = { (mini_config ()) with Campaign.profiling_runs = 2 } in
  let store ?(fingerprint = "fp-a") () =
    Checkpoint_store.create ~fingerprint ~dir ~config_key:"cfg" ()
  in
  let profile ?fingerprint config =
    snd
      (traced (fun () ->
           ignore (Campaign.profile_and_context ~store:(store ?fingerprint ()) config)))
  in
  check_spans ~served:false (profile base);
  check_spans ~served:true (profile base);
  let variants =
    [
      ("seed", None, { base with Campaign.seed = base.Campaign.seed + 1 });
      ("profiling_runs", None, { base with Campaign.profiling_runs = 3 });
      ("enabled_bugs", None, { base with Campaign.enabled_bugs = [] });
      ("fingerprint", Some "fp-b", base);
    ]
  in
  List.iteri
    (fun i (what, fingerprint, config) ->
      let names = profile ?fingerprint config in
      Alcotest.(check bool) (what ^ ": flown, not served") true
        (List.mem "campaign.profile" names
        && not (List.mem "store.profile" names));
      Alcotest.(check int) (what ^ ": own file") (i + 2)
        (List.length (prof_files dir)))
    variants

let () =
  Alcotest.run "avis_store"
    [
      ( "codec",
        [
          Alcotest.test_case "calm flight round-trips" `Quick test_roundtrip_calm;
          Alcotest.test_case "windy flight round-trips" `Quick
            test_roundtrip_windy;
          Alcotest.test_case "mid-fault snapshot round-trips" `Quick
            test_roundtrip_mid_fault;
          Alcotest.test_case "auto-box/px4 round-trips" `Slow
            test_roundtrip_auto_box_px4;
          QCheck_alcotest.to_alcotest ~long:false qcheck_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick
            test_of_bytes_rejects_garbage;
          Alcotest.test_case "outcome round-trips field for field" `Quick
            test_outcome_roundtrip;
          Alcotest.test_case "damaged or unclean outcome is Corrupt" `Quick
            test_outcome_rejects_damage;
        ] );
      ( "hostile bytes",
        [
          QCheck_alcotest.to_alcotest ~long:false qcheck_fuzz_truncated;
          QCheck_alcotest.to_alcotest ~long:false qcheck_fuzz_bitflip;
          QCheck_alcotest.to_alcotest ~long:false qcheck_fuzz_random;
          QCheck_alcotest.to_alcotest ~long:false qcheck_fuzz_outcome;
        ] );
      ( "store",
        [
          Alcotest.test_case "put/lookup round-trip" `Quick test_store_put_lookup;
          Alcotest.test_case "put is idempotent and lazy" `Quick
            test_store_put_is_idempotent_and_lazy;
          Alcotest.test_case "corruption is a counted miss" `Quick
            test_store_corruption_is_a_miss;
          Alcotest.test_case "corrupt newest falls back to older" `Quick
            test_store_corrupt_newest_falls_back_to_older;
          Alcotest.test_case "stale fingerprint invisible" `Quick
            test_store_stale_fingerprint_invisible;
          Alcotest.test_case "eviction keeps bytes bounded" `Quick
            test_store_eviction_bounded;
          Alcotest.test_case "mtime-tie eviction is path-deterministic" `Quick
            test_store_eviction_mtime_tiebreak;
          Alcotest.test_case "AVIS_STORE_MB guard" `Quick test_store_mb_guard;
          Alcotest.test_case "AVIS_CACHE_MB guard" `Slow test_cache_mb_guard;
          Alcotest.test_case "two domains, one directory" `Quick
            test_store_two_domains;
          Alcotest.test_case "misnamed file fails closed" `Quick
            test_store_misnamed_file_fails_closed;
          Alcotest.test_case "profile put/lookup" `Quick
            test_store_profile_roundtrip;
        ] );
      ( "shared store",
        [
          Alcotest.test_case "fresh instance serves from disk" `Slow
            test_store_shared_across_instances;
          Alcotest.test_case "fresh instance forks each scenario's own prefix"
            `Slow test_store_serves_own_prefix;
          Alcotest.test_case "vandalised store still identical" `Slow
            test_store_vandalised_dir_still_identical;
          Alcotest.test_case "store beats a worse memory checkpoint" `Slow
            test_store_beats_worse_memory;
          Alcotest.test_case "lookup reads only the winning file" `Slow
            test_store_reads_only_winner;
        ] );
      ( "store profile",
        [
          Alcotest.test_case "warm cell serves its profile" `Slow
            test_profile_served_warm;
          Alcotest.test_case "vandalised profile re-flown" `Slow
            test_profile_vandalised_reflown;
          Alcotest.test_case "identities never share a profile" `Slow
            test_profile_identities_isolated;
        ] );
    ]
