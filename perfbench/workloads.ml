(* The benchmark's three campaign workloads and the instrumented runner
   that times them from outside the program, through [Campaign.run]'s
   public hooks: the strategy constructor, the strategy's [next] and
   [observe], and the [progress] callback. *)

open Avis_firmware
open Avis_core

let now_s = Avis_util.Metrics.now_s

type cell = {
  approach : string;  (** The name [Campaign.cell_seed] is keyed by. *)
  config : Campaign.config;
  strategy : Search.context -> Search.t;
  expects_finding : bool;
}

(* One instance of a workload: its cells, all seeded from one base. *)
type instance = { base : int; cells : cell list }

type t = {
  name : string;
  instances : instance list;
  store : bool;
      (** Timed cells fork from a checkpoint store populated in set-up. *)
}

let label c = Campaign.label_of c.config ~approach:c.approach

(* A run measures several instances of its workload, each from its own
   base seed, so that what one base happens to make the search do (how
   many scenarios, how long each flies, how soon a bug shows) is averaged
   into the figures rather than taken as the workload's speed. Budgets
   are sized so that every run judges at least 100 scenarios and every
   Avis cell records a finding (checked on every run). *)
let paper_matrix_budget_s = 150.0
let avis_hunt_budget_s = 600.0
let store_replay_budget_s = 150.0

let cell ~base ~budget_s ~approach ~strategy ~expects_finding policy workload =
  let config =
    {
      (Campaign.default_config policy workload) with
      Campaign.budget_s;
      seed =
        Campaign.cell_seed ~base ~policy:policy.Policy.name
          ~workload:workload.Workload.name ~approach ();
      prefix_cache = true;
    }
  in
  { approach; config; strategy; expects_finding }

(* Tables II-IV: every approach on both firmwares and both missions, with
   the bench harness's approach names. *)
let paper_matrix_cells ~base =
  let approaches =
    [
      ("Avis", (fun ctx -> Sabre.make ctx), true);
      ("Strat. BFI", (fun ctx -> Strat_bfi.make ctx), false);
      ("BFI", (fun ctx -> Bfi.make ctx), false);
      ("Random", (fun ctx -> Random_search.make ctx), false);
    ]
  in
  List.concat_map
    (fun (approach, strategy, expects_finding) ->
      List.concat_map
        (fun policy ->
          List.map
            (cell ~base ~budget_s:paper_matrix_budget_s ~approach ~strategy
               ~expects_finding policy)
            [ Workload.manual_box; Workload.auto_box ])
        [ Policy.apm; Policy.px4 ])
    approaches

(* What `avis_cli hunt` runs by default, on both firmwares. *)
let avis_cells ~budget_s ~base =
  List.map
    (fun policy ->
      cell ~base ~budget_s ~approach:"avis"
        ~strategy:(fun ctx -> Sabre.make ctx)
        ~expects_finding:true policy Workload.auto_box)
    [ Policy.apm; Policy.px4 ]

let make name ~seed ~count ~store cells =
  let instances =
    List.init count (fun i ->
        let base = (count * seed) + i in
        { base; cells = cells ~base })
  in
  { name; instances; store }

let names = [ "paper-matrix"; "avis-hunt"; "store-replay" ]

let of_name name ~seed =
  match name with
  | "paper-matrix" -> Some (make name ~seed ~count:2 ~store:false paper_matrix_cells)
  | "avis-hunt" ->
    Some (make name ~seed ~count:3 ~store:false (avis_cells ~budget_s:avis_hunt_budget_s))
  | "store-replay" ->
    Some (make name ~seed ~count:3 ~store:true (avis_cells ~budget_s:store_replay_budget_s))
  | _ -> None

(* What the wrappers saw during one cell. Times are host seconds. *)
type obs = {
  mutable profile_s : float;
      (** [Campaign.run] entry until the strategy constructor is called. *)
  mutable next_s : float;  (** Inside the strategy's [next]. *)
  mutable observe_s : float;  (** Inside the strategy's [observe]. *)
  mutable exec_s : float;
      (** From [next] returning [Run] until that scenario's [observe]. *)
  mutable latencies_ms : float list;
      (** Per judged scenario: entry to the [next] that returned [Run]
          until its [observe] returned. *)
  mutable first_finding_s : float option;
      (** From [Campaign.run] entry until the first [progress] reporting
          a finding. *)
  account : Sim_account.t;
  mutable scenarios : Scenario.t list;  (** Run order, newest first. *)
}

type cell_run = {
  cell : cell;
  outcome : Campaign.result Campaign.supervised;
  obs : obs;
  wall_s : float;
}

(* One attempt only: a retry would restart the campaign and mix two
   attempts' timings, and a cell that needs one has failed the run. *)
let supervision = { Campaign.default_supervision with Campaign.max_attempts = 1 }

let run_cell ?store_dir cell =
  let obs =
    {
      profile_s = 0.0; next_s = 0.0; observe_s = 0.0; exec_s = 0.0;
      latencies_ms = []; first_finding_s = None;
      account = Sim_account.create (); scenarios = [];
    }
  in
  let instrument (s : Search.t) =
    let next_entered = ref 0.0 and run_returned = ref 0.0 in
    let next () =
      let t0 = now_s () in
      let step = s.Search.next () in
      let t1 = now_s () in
      obs.next_s <- obs.next_s +. (t1 -. t0);
      Sim_account.note_step obs.account step;
      (match step with
      | Search.Run (scenario, _) ->
        next_entered := t0;
        run_returned := t1;
        obs.scenarios <- scenario :: obs.scenarios
      | Search.Think _ | Search.Exhausted -> ());
      step
    in
    let observe scenario result =
      let t0 = now_s () in
      obs.exec_s <- obs.exec_s +. (t0 -. !run_returned);
      s.Search.observe scenario result;
      let t1 = now_s () in
      obs.observe_s <- obs.observe_s +. (t1 -. t0);
      obs.latencies_ms <- ((t1 -. !next_entered) *. 1e3) :: obs.latencies_ms
    in
    { s with Search.next; observe }
  in
  let t0 = now_s () in
  let progress (p : Campaign.progress) =
    Sim_account.note_progress obs.account ~spent_s:p.Campaign.spent_s;
    if p.Campaign.findings > 0 && obs.first_finding_s = None then
      obs.first_finding_s <- Some (now_s () -. t0)
  in
  let outcome =
    Avis_util.Trace.span ~cat:"bench" "bench.cell" @@ fun () ->
    let cache = Option.map (fun dir -> Campaign.make_cache ~store_dir:dir cell.config) store_dir in
    let entered = now_s () in
    let strategy ctx =
      obs.profile_s <- now_s () -. entered;
      Avis_util.Trace.span ~cat:"bench" "bench.strategy" (fun () ->
          instrument (cell.strategy ctx))
    in
    Campaign.run_supervised ~supervision ~progress ?cache ~lanes:1 cell.config
      ~strategy
  in
  { cell; outcome; obs; wall_s = now_s () -. t0 }

type pass = { instance : instance; wall_s : float; runs : cell_run list }

let run_pass ?store_dir instance =
  Avis_util.Trace.span ~cat:"bench" "bench.pass" @@ fun () ->
  let t0 = now_s () in
  let runs = List.map (run_cell ?store_dir) instance.cells in
  { instance; wall_s = now_s () -. t0; runs }

let digest_cell r =
  match r.outcome with
  | Campaign.Completed result ->
    Some (Result_digest.of_result ~label:(label r.cell) result)
  | Campaign.Quarantined _ -> None

(* Why a cell's outcome is wrong on its own, if it is; agreement with
   other runs of the same cell is checked by the caller. *)
let check r =
  match r.outcome with
  | Campaign.Quarantined e ->
    Some (Printf.sprintf "quarantined [%s]: %s" e.Campaign.code e.Campaign.message)
  | Campaign.Completed result ->
    if result.Campaign.wall_clock_spent_s > r.cell.config.Campaign.budget_s then
      Some
        (Printf.sprintf "spent %.17g s of a %.17g s budget"
           result.Campaign.wall_clock_spent_s r.cell.config.Campaign.budget_s)
    else if r.cell.expects_finding && result.Campaign.findings = [] then
      Some "no finding"
    else None
