(* Where one simulated step's time and allocation go, layer by layer,
   measured from outside [Sim.step].

   Simulators are provisioned exactly as a campaign's test runs are
   ([Sim.create] from the cell's config, with a scenario that cell ran),
   paused with [Workload.Stepper.run ~until] at a few points of the
   mission, and snapshotted. Each snapshot is restored twice: twin A is
   driven by [Sim.step]; twin B by the layer calls [Sim.step] makes,
   each bracketed on its own. The sensor suite is not reachable through
   [Sim], so its share is what twin A spends beyond twin B's layers.
   Every bracket costs one clock read, measured on an empty bracket and
   subtracted. *)

open Avis_firmware
open Avis_sitl
open Avis_core

(* The simulator config [Campaign.run] provisions a test run with. *)
let test_sim_config (c : Campaign.config) =
  {
    (Sim.default_config c.Campaign.policy) with
    Sim.enabled_bugs = c.Campaign.enabled_bugs;
    seed = c.Campaign.seed + 1000;
    max_duration = c.Campaign.workload.Workload.nominal_duration +. 60.0;
    link_jitter_steps = c.Campaign.link_jitter_steps;
    link_faults = c.Campaign.link_faults;
    environment = c.Campaign.workload.Workload.environment ();
  }

(* A cell's journal identity starts with its test-run simulator config, so
   this checks the derivation above against the campaign's own. *)
let provisions_like_campaign c =
  let ours = Sim.config_to_bytes (test_sim_config c) in
  String.starts_with ~prefix:ours (Campaign.journal_identity c ~approach:"")

(* Many short samples rather than a few long ones: twin B never ticks the
   sensors, so it drifts from twin A the longer it runs. *)
let sample_fractions = List.init 8 (fun i -> 0.1 *. float_of_int (i + 1))

let snapshots (c : Campaign.config) scenario =
  let sim =
    Sim.create ~plan:(Scenario.to_plan scenario)
      ~link_outages:(Scenario.link_outages scenario) (test_sim_config c)
  in
  let stepper = Workload.Stepper.create c.Campaign.workload in
  List.filter_map
    (fun f ->
      let until = f *. c.Campaign.workload.Workload.nominal_duration in
      match Workload.Stepper.run stepper sim ~until with
      | Workload.Stepper.Running when not (Sim.finished sim) -> Some (Sim.snapshot sim)
      | Workload.Stepper.Running | Workload.Stepper.Done _ -> None)
    sample_fractions

let now () = Monotonic_clock.now ()
let elapsed t0 t1 = Int64.to_float (Int64.sub t1 t0)

(* Mean ns of an empty bracket, the median of a few batches. *)
let timer_overhead_ns () =
  let batch () =
    let n = 100_000 in
    let total = [| 0.0 |] in
    for _ = 1 to n do
      let t0 = now () in
      let t1 = now () in
      total.(0) <- total.(0) +. elapsed t0 t1
    done;
    total.(0) /. float_of_int n
  in
  Percentile.median (List.init 5 (fun _ -> batch ()))

let words_overhead () =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  w1 -. w0

(* Accumulator slots; every sum is per step once divided by its count. *)
let a_steps = 0
let a_ns = 1
let a_words = 2
let a_reads = 3
let b_steps = 4
let link_ns = 5
let firmware_ns = 6
let physics_ns = 7
let trace_ns = 8
let gcs_ns = 9
let firmware_words = 10
let gcs_words = 11
let slots = 12

let twin_a acc snap ~steps =
  let sim = Sim.restore snap in
  let reads0 = Avis_hinj.Hinj.read_count (Sim.hinj sim) in
  let n = ref 0 in
  while !n < steps && not (Sim.finished sim) do
    let t0 = now () in
    Sim.step sim;
    let t1 = now () in
    acc.(a_ns) <- acc.(a_ns) +. elapsed t0 t1;
    incr n
  done;
  acc.(a_steps) <- acc.(a_steps) +. float_of_int !n;
  acc.(a_reads) <-
    acc.(a_reads) +. float_of_int (Avis_hinj.Hinj.read_count (Sim.hinj sim) - reads0);
  (* Allocation on a second restore, so no clock read sits in between. *)
  let sim = Sim.restore snap in
  for _ = 1 to !n do
    let w0 = Gc.minor_words () in
    Sim.step sim;
    let w1 = Gc.minor_words () in
    acc.(a_words) <- acc.(a_words) +. (w1 -. w0)
  done

(* [Sim.step]'s layer calls in its order, minus the sensor tick. *)
let twin_b acc snap ~steps =
  let layers sim ~timed =
    let link = Sim.link sim and vehicle = Sim.vehicle sim and world = Sim.world sim in
    let trace = Sim.trace sim and gcs = Sim.gcs sim in
    let dt = (Sim.config sim).Sim.dt and steps0 = Sim.steps sim in
    let n = ref 0 in
    while !n < steps && not (Avis_physics.World.crashed world) do
      incr n;
      let k = steps0 + !n in
      if timed then begin
        let t0 = now () in
        Avis_mavlink.Link.step link;
        let t1 = now () in
        let motors = Vehicle.step vehicle world ~dt in
        let t2 = now () in
        ignore (Avis_physics.World.step world ~motor_commands:motors ~dt);
        let t3 = now () in
        Trace.record trace ~steps:k ~dt world ~mode:(Phase.label (Vehicle.phase vehicle));
        let t4 = now () in
        ignore (Avis_mavlink.Gcs.tick gcs ~time:(float_of_int k *. dt));
        let t5 = now () in
        acc.(link_ns) <- acc.(link_ns) +. elapsed t0 t1;
        acc.(firmware_ns) <- acc.(firmware_ns) +. elapsed t1 t2;
        acc.(physics_ns) <- acc.(physics_ns) +. elapsed t2 t3;
        acc.(trace_ns) <- acc.(trace_ns) +. elapsed t3 t4;
        acc.(gcs_ns) <- acc.(gcs_ns) +. elapsed t4 t5
      end
      else begin
        Avis_mavlink.Link.step link;
        let w0 = Gc.minor_words () in
        let motors = Vehicle.step vehicle world ~dt in
        let w1 = Gc.minor_words () in
        ignore (Avis_physics.World.step world ~motor_commands:motors ~dt);
        Trace.record trace ~steps:k ~dt world ~mode:(Phase.label (Vehicle.phase vehicle));
        let w2 = Gc.minor_words () in
        ignore (Avis_mavlink.Gcs.tick gcs ~time:(float_of_int k *. dt));
        let w3 = Gc.minor_words () in
        acc.(firmware_words) <- acc.(firmware_words) +. (w1 -. w0);
        acc.(gcs_words) <- acc.(gcs_words) +. (w3 -. w2)
      end
    done;
    !n
  in
  let n = layers (Sim.restore snap) ~timed:true in
  acc.(b_steps) <- acc.(b_steps) +. float_of_int n;
  ignore (layers (Sim.restore snap) ~timed:false : int)

let steps_per_sample = 50

(* Each sweep over the snapshots takes milliseconds, short enough for one
   burst of host noise to skew it, so the split is the median of several. *)
let sweeps = 5

(* [samples] pairs a cell's config with a scenario that cell ran. *)
let measure samples =
  let snaps = List.concat_map (fun (config, scenario) -> snapshots config scenario) samples in
  if snaps = [] then failwith "step split: no sample point was reached";
  let overhead_ns = timer_overhead_ns () in
  let overhead_words = words_overhead () in
  let sweep () =
    let acc = Array.make slots 0.0 in
    List.iter
      (fun snap ->
        twin_a acc snap ~steps:steps_per_sample;
        twin_b acc snap ~steps:steps_per_sample)
      snaps;
    let per_a i = acc.(i) /. acc.(a_steps) and per_b i = acc.(i) /. acc.(b_steps) in
    let ns_a i = per_a i -. overhead_ns and ns_b i = per_b i -. overhead_ns in
    let layer_ns = List.map ns_b [ link_ns; firmware_ns; physics_ns; trace_ns; gcs_ns ] in
    [
      ("sim.step_ns", ns_a a_ns);
      ("sim.step_words", per_a a_words -. overhead_words);
      ("firmware.step_ns", ns_b firmware_ns);
      ("firmware.step_words", per_b firmware_words -. overhead_words);
      ("physics.step_ns", ns_b physics_ns);
      ("link.step_ns", ns_b link_ns);
      ("trace.record_ns", ns_b trace_ns);
      ("gcs.tick_ns", ns_b gcs_ns);
      ("gcs.tick_words", per_b gcs_words -. overhead_words);
      ("sensors.tick_ns", ns_a a_ns -. List.fold_left ( +. ) 0.0 layer_ns);
      ("hinj.reads_per_step", per_a a_reads);
    ]
  in
  let results = List.init sweeps (fun _ -> sweep ()) in
  List.map
    (fun (name, _) -> (name, Percentile.median (List.map (List.assoc name) results)))
    (List.hd results)
  @ [ ("timer.overhead_ns", overhead_ns) ]
