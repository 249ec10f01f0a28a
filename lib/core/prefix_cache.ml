open Avis_sitl
open Avis_mavlink

type entry = {
  time : float;
  sim_snap : Sim.snapshot;
  stepper_snap : Workload.Stepper.snapshot;
  bytes : int;  (** Accounted size of both snapshots at capture time. *)
  mutable last_used : int;  (** Logical clock tick of last capture or hit. *)
}

type t = {
  workload : Workload.t;
  make_sim : scenario:Scenario.t -> Sim.t;
  store : Checkpoint_store.t option;
      (** Persistent overflow/sharing tier: same keys as [entries], files on
          disk, shared with other processes. [None] when no store directory
          is configured or the config bypasses caching. *)
  bypass : bool;
      (** The configured runs carry state the cache key cannot encode
          (sensor degradations, probabilistic link faults): such a cache has
          no targets and no store, so every scenario runs cold and counts
          as a miss. *)
  targets : float array;  (** Capture times, ascending. *)
  entries : (string, entry list) Hashtbl.t;
      (** Active-fault-prefix key -> checkpoints, latest first. *)
  mutable hits : int;
  mutable misses : int;
  mutable bypasses : int;
  mutable saved_sim_s : float;
  budget_bytes : int;  (** Resident-set ceiling; never exceeded. *)
  mutable resident_bytes : int;
  mutable use_tick : int;  (** Logical clock for LRU ordering. *)
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  saved_sim_s : float;
  evictions : int;
  resident_bytes : int;
  store_hits : int;
  store_misses : int;
  store_bytes : int;
}

let default_cache_mb = 1024

(* The byte budget comes from [?cache_mb], else the [AVIS_CACHE_MB]
   environment variable, else 1 GiB. Zero, negative and malformed values
   are rejected with a warning and replaced by the default, like
   [Pool.jobs_of_env]: a typo'd budget must not silently turn the cache
   stateless (a zero budget makes every capture evict itself). *)
let budget_bytes_of ?cache_mb () =
  let mb =
    match cache_mb with
    | Some mb when mb > 0 -> mb
    | Some mb ->
      Printf.eprintf
        "[avis] warning: ignoring invalid cache_mb=%d (want a positive \
         integer); using %d\n\
         %!"
        mb default_cache_mb;
      default_cache_mb
    | None ->
      Avis_util.Env.positive_int ~var:"AVIS_CACHE_MB" ~default:default_cache_mb
        ()
  in
  mb * 1024 * 1024

(* Degradations persist mutable per-driver state that [Sim.restore] cannot
   substitute, and a probabilistic link profile consumes fault randomness
   per chunk, so a forked run would diverge from a cold one. Neither
   appears in the cache key, so such configs must bypass the cache
   entirely. *)
let uncacheable probe =
  Avis_hinj.Hinj.degradations (Sim.hinj probe) <> []
  || Link.probabilistic (Link.profile (Sim.link probe))

let open_store ?store_dir ?store_mb ~workload ~make_sim () =
  let store_dir =
    match store_dir with
    | Some _ -> store_dir
    | None -> Sys.getenv_opt "AVIS_STORE_DIR"
  in
  match store_dir with
  | Some dir when dir <> "" ->
    let probe = make_sim ~scenario:Scenario.empty in
    if uncacheable probe then None
    else
      (* The store's configuration identity: the canonical config bytes
         plus the workload name — two campaigns whose runs could ever
         diverge must never share a key. *)
      let config_key =
        Sim.config_to_bytes (Sim.config probe) ^ "\x00" ^ workload.Workload.name
      in
      Some (Checkpoint_store.create ?store_mb ~dir ~config_key ())
  | _ -> None

let create ?cache_mb ?store ~workload ~make_sim ~checkpoint_times () =
  let ts =
    List.sort_uniq compare (List.filter (fun t -> t > 0.0) checkpoint_times)
  in
  (* Probe the provisioner once to detect uncacheable configurations. *)
  let bypass = uncacheable (make_sim ~scenario:Scenario.empty) in
  {
    workload;
    make_sim;
    store = (if bypass then None else store);
    bypass;
    targets = (if bypass then [||] else Array.of_list ts);
    entries = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    bypasses = 0;
    saved_sim_s = 0.0;
    budget_bytes = budget_bytes_of ?cache_mb ();
    resident_bytes = 0;
    use_tick = 0;
    evictions = 0;
  }

let bypassing t = t.bypass
let store t = t.store

(* Fault activation ([Hinj.is_failed]) is judged against the firmware's own
   accumulated clock ([Vehicle.time]), not the step-derived [Sim.time]; the
   two drift apart by float rounding. Checkpoint validity must use the same
   clock the injector sees, or a fault landing exactly on a profiled
   transition time could already be active at the "clean" checkpoint step. *)
let injection_clock sim = Avis_firmware.Vehicle.time (Sim.vehicle sim)

(* Checkpoints are keyed by the exact set of faults active when they were
   taken. Times are encoded by their bit pattern, so two runs share a key
   only when their fault histories agree float-for-float — which, with a
   fixed test seed, makes their states bit-identical up to the checkpoint.
   A link outage stays in the key even after its window closes: the dropped
   traffic leaves the run's state permanently different from a run that
   never lost the link. The clean prefix is the special case of the empty
   key. *)
let encode_fault (f : Scenario.fault) =
  match f with
  | Scenario.Sensor_fault sf ->
    Printf.sprintf "%s@%Lx"
      (Avis_sensors.Sensor.id_to_string sf.Scenario.sensor)
      (Int64.bits_of_float sf.Scenario.at)
  | Scenario.Link_loss { at; duration } ->
    Printf.sprintf "link@%Lx+%Lx" (Int64.bits_of_float at)
      (Int64.bits_of_float duration)

let encode_faults faults =
  String.concat ";" (List.sort compare (List.map encode_fault faults))

let active_key (scenario : Scenario.t) ~time =
  encode_faults
    (List.filter (fun f -> Scenario.fault_time f <= time) scenario)

let word_bytes = Sys.word_size / 8

(* Accounted size of a checkpoint: the simulator snapshot's exact byte
   size (dominated by the world's float blob and the trace columns) plus
   the reachable size of the stepper snapshot. *)
let entry_bytes ~sim_snap ~stepper_snap =
  Sim.snapshot_bytes sim_snap
  + (Obj.reachable_words (Obj.repr stepper_snap) * word_bytes)

let note_resident (t : t) =
  Avis_util.Trace.counter "cache.resident_bytes"
    (float_of_int t.resident_bytes)

(* A stored checkpoint is the two snapshots as independent length-prefixed
   blobs, so either side can grow its own format version. *)
let store_payload ~sim_snap ~stepper_snap =
  let open Avis_util.Codec in
  to_string
    (fun b () ->
      w_bytes b (Sim.to_bytes sim_snap);
      w_bytes b (Workload.Stepper.to_bytes stepper_snap))
    ()

let snaps_of_payload payload =
  let open Avis_util.Codec in
  of_string
    (fun r ->
      let sim_snap = Sim.of_bytes (r_bytes r) in
      let stepper_snap = Workload.Stepper.of_bytes (r_bytes r) in
      (sim_snap, stepper_snap))
    payload

let note_store store =
  let st = Checkpoint_store.stats store in
  Avis_util.Trace.counter "store.hits" (float_of_int st.Checkpoint_store.hits);
  Avis_util.Trace.counter "store.misses"
    (float_of_int st.Checkpoint_store.misses);
  Avis_util.Trace.counter "store.bytes" (float_of_int st.Checkpoint_store.bytes)

(* Drop the globally least-recently-used checkpoint (capture and hit both
   count as uses). Linear in the entry count, which the byte budget keeps
   small relative to snapshot cost. *)
let evict_lru (t : t) =
  let victim = ref None in
  Hashtbl.iter
    (fun key es ->
      List.iter
        (fun e ->
          match !victim with
          | Some (_, v) when v.last_used <= e.last_used -> ()
          | _ -> victim := Some (key, e))
        es)
    t.entries;
  match !victim with
  | None -> false
  | Some (key, v) ->
    let es = Option.value ~default:[] (Hashtbl.find_opt t.entries key) in
    (match List.filter (fun e -> e != v) es with
    | [] -> Hashtbl.remove t.entries key
    | remaining -> Hashtbl.replace t.entries key remaining);
    t.resident_bytes <- t.resident_bytes - v.bytes;
    t.evictions <- t.evictions + 1;
    Avis_util.Trace.counter "cache.evictions" (float_of_int t.evictions);
    true

let enforce_budget (t : t) =
  while t.resident_bytes > t.budget_bytes && evict_lru t do () done;
  note_resident t

(* Make a checkpoint resident under [key], keeping the key's list
   latest-first. A lone checkpoint larger than the whole budget evicts
   itself, so the resident set never exceeds the budget even transiently
   past this point. *)
let add_entry (t : t) ~key ~time ~sim_snap ~stepper_snap =
  let bytes = entry_bytes ~sim_snap ~stepper_snap in
  t.use_tick <- t.use_tick + 1;
  let entry = { time; sim_snap; stepper_snap; bytes; last_used = t.use_tick } in
  let rec insert = function
    | e :: rest when e.time > time -> e :: insert rest
    | rest -> entry :: rest
  in
  Hashtbl.replace t.entries key
    (insert (Option.value ~default:[] (Hashtbl.find_opt t.entries key)));
  t.resident_bytes <- t.resident_bytes + bytes;
  enforce_budget t;
  entry

let capture (t : t) ~scenario sim st =
  Avis_util.Trace.span ~cat:"cache" "cache.checkpoint" @@ fun () ->
  let time = injection_clock sim in
  if time > 0.0 then begin
    let key = active_key scenario ~time in
    let existing =
      Option.value ~default:[] (Hashtbl.find_opt t.entries key)
    in
    (* Same key + same time means the frozen state is bit-identical to one
       already stored; skip the snapshot entirely. *)
    if not (List.exists (fun e -> e.time = time) existing) then begin
      let sim_snap = Sim.snapshot sim in
      let stepper_snap = Workload.Stepper.snapshot st in
      (* Write-through to the persistent tier. The payload is lazy: when a
         previous process already stored this exact key and time, nothing
         is serialised at all. *)
      (match t.store with
      | Some store ->
        Checkpoint_store.put store ~fault_key:key ~time
          ~payload:(lazy (store_payload ~sim_snap ~stepper_snap))
      | None -> ());
      let entry = add_entry t ~key ~time ~sim_snap ~stepper_snap in
      Avis_util.Trace.counter "snapshot.bytes" (float_of_int entry.bytes)
    end
  end

let compare_for_prefix a b =
  match compare (Scenario.fault_time a) (Scenario.fault_time b) with
  | 0 -> compare (encode_fault a) (encode_fault b)
  | c -> c

(* The checkpoints this scenario can fork from, as windows
   [(key, before)]: with the faults sorted by activation time, each prefix
   of j faults is a candidate key, and a checkpoint under it is sound iff
   it was taken strictly before the (j+1)-th fault activates
   ([Hinj.is_failed] activates at [at <= time], and an outage opens at the
   first step of its window, so equality would already differ). Entries
   under a key necessarily postdate every fault in it, so the window is
   the only check needed. *)
let prefix_windows scenario =
  let faults = Array.of_list (List.sort compare_for_prefix scenario) in
  let k = Array.length faults in
  List.init (k + 1) (fun j ->
      ( encode_faults (Array.to_list (Array.sub faults 0 j)),
        if j = k then infinity else Scenario.fault_time faults.(j) ))

(* Memory's latest checkpoint over [windows]. A key's entries are
   latest-first, so the first in-window one is its best; on equal times
   the shorter prefix wins. *)
let lookup t ~windows =
  Avis_util.Trace.span ~cat:"cache" "cache.lookup" @@ fun () ->
  List.fold_left
    (fun best (key, before) ->
      match Hashtbl.find_opt t.entries key with
      | None -> best
      | Some es -> (
        match (List.find_opt (fun e -> e.time < before) es, best) with
        | Some e, Some b when b.time >= e.time -> best
        | Some e, _ -> Some e
        | None, _ -> best))
    None windows

(* The persistent tier, consulted for a checkpoint strictly later than
   [after] (memory's best): the store picks its winner by file name from
   one listing, so no payload is read unless it beats memory. A served
   checkpoint is decoded and made resident, so the disk is touched once per
   prefix, not once per scenario. *)
let store_lookup t store ~windows ~after =
  Avis_util.Trace.span ~cat:"cache" "store.lookup" @@ fun () ->
  match Checkpoint_store.lookup_latest store ~after ~windows with
  | None -> None
  | Some (key, time, payload) -> (
    match snaps_of_payload payload with
    | exception Avis_util.Codec.Corrupt _ ->
      (* The frame checksum held but the payload didn't decode (e.g. a
         foreign format revision): treat as a miss; the fingerprint in the
         key makes this all but impossible for files we wrote. *)
      None
    | sim_snap, stepper_snap ->
      Some (add_entry t ~key ~time ~sim_snap ~stepper_snap))

(* Memory first; the store serves when its best is strictly later. A
   scenario the store serves counts as a store hit, one no tier serves as
   a store miss. *)
let find t ~scenario =
  let windows = prefix_windows scenario in
  let in_memory = lookup t ~windows in
  match t.store with
  | None -> in_memory
  | Some store ->
    let after =
      match in_memory with Some e -> e.time | None -> neg_infinity
    in
    let found =
      match store_lookup t store ~windows ~after with
      | Some _ as e ->
        Checkpoint_store.count_hit store;
        e
      | None ->
        if Option.is_none in_memory then Checkpoint_store.count_miss store;
        in_memory
    in
    note_store store;
    found

(* Run [sim] to completion, pausing at each remaining capture target so the
   run's own prefixes become checkpoints for later scenarios: the clean
   prefix before its first fault under the empty key, and each longer
   fault prefix under its own key — which is what lets a search that stacks
   faults onto a safe scenario (SABRE's sites) fork from its base run
   instead of re-simulating it. Pausing and resuming is bit-identical to an
   uninterrupted run. Targets already behind the clock are skipped without
   capturing. *)
let run_capturing t ~scenario sim st =
  let n = Array.length t.targets in
  let rec go i =
    if i >= n then
      match Workload.Stepper.run st sim ~until:infinity with
      | Workload.Stepper.Done passed -> passed
      | Workload.Stepper.Running -> false
    else begin
      let target = t.targets.(i) in
      if target <= Sim.time sim then go (i + 1)
      else
        match Workload.Stepper.run st sim ~until:target with
        | Workload.Stepper.Running ->
          capture t ~scenario sim st;
          go (i + 1)
        | Workload.Stepper.Done passed -> passed
    end
  in
  go 0

let execute t ~scenario =
  let sim, st =
    match find t ~scenario with
    | Some e ->
      t.hits <- t.hits + 1;
      Avis_util.Trace.counter "cache.hits" (float_of_int t.hits);
      t.use_tick <- t.use_tick + 1;
      e.last_used <- t.use_tick;
      t.saved_sim_s <- t.saved_sim_s +. e.time;
      ( Sim.restore
          ~plan:(Scenario.to_plan scenario)
          ~link_outages:(Scenario.link_outages scenario)
          e.sim_snap,
        Workload.Stepper.restore e.stepper_snap )
    | None ->
      t.misses <- t.misses + 1;
      Avis_util.Trace.counter "cache.misses" (float_of_int t.misses);
      if t.bypass then begin
        t.bypasses <- t.bypasses + 1;
        Avis_util.Trace.counter "cache.bypasses" (float_of_int t.bypasses)
      end;
      (t.make_sim ~scenario, Workload.Stepper.create t.workload)
  in
  let passed = run_capturing t ~scenario sim st in
  Sim.outcome sim ~workload_passed:passed

let stats (t : t) =
  let store_hits, store_misses, store_bytes =
    match t.store with
    | None -> (0, 0, 0)
    | Some s ->
      let st = Checkpoint_store.stats s in
      Checkpoint_store.(st.hits, st.misses, st.bytes)
  in
  {
    hits = t.hits;
    misses = t.misses;
    saved_sim_s = t.saved_sim_s;
    evictions = t.evictions;
    resident_bytes = t.resident_bytes;
    store_hits;
    store_misses;
    store_bytes;
  }

let enabled_by_env () =
  Avis_util.Env.flag ~default:true ~var:"AVIS_PREFIX_CACHE" ()
