(** Snapshot-based prefix caching for campaign test runs.

    Every test run in a campaign replays a shared prefix before diverging:
    the clean flight — provision, arm, climb — and, for searches that stack
    faults onto a previously observed scenario (SABRE's sites), the faulty
    flight of that base scenario too. The cache checkpoints both with
    {!Avis_sitl.Sim.snapshot} and {!Workload.Stepper.snapshot}, from one
    capture path: every executed scenario is checkpointed at the requested
    times as it runs, each checkpoint keyed by the exact set of faults —
    sensor failures and link outages alike — already active when it was
    taken (an outage stays in the key after its window closes: the traffic
    it dropped leaves the run permanently different). A run's checkpoints
    before its first fault carry the empty key: they are the clean prefix
    every later scenario can fork from. There is no separate clean run; the
    first scenario into an empty cache runs cold.

    A scenario is then served by restoring the latest checkpoint whose
    active-fault set is a float-for-float prefix of the scenario and whose
    time lies strictly before the scenario's next injection, substituting
    the full fault schedule with {!Avis_sitl.Sim.restore}, and simulating
    only the suffix. Because the fixed test seed makes runs with identical
    fault histories bit-identical, and the restored simulator keeps its
    step counter, every outcome — trace, transitions, duration, sensor
    reads — is bit-identical to a cold run of the same scenario, and budget
    accounting (which charges the full virtual duration) is unchanged. The
    win is wall-clock only.

    Configurations the key cannot encode are refused wholesale: if the
    provisioned runs carry sensor degradations or a probabilistic link
    fault profile, every scenario is simulated cold and counted as a miss
    (see {!bypassing}). *)

type t

val open_store :
  ?store_dir:string ->
  ?store_mb:int ->
  workload:Workload.t ->
  make_sim:(scenario:Scenario.t -> Avis_sitl.Sim.t) ->
  unit ->
  Checkpoint_store.t option
(** The persistent tier for a cache of [make_sim]'s runs (the same
    provisioner {!create} gets): a {!Checkpoint_store} rooted at
    [store_dir] (default the [AVIS_STORE_DIR] environment variable, else no
    store), keyed by the code fingerprint, the runs' canonical
    configuration bytes and the workload. [store_mb] bounds the directory
    (default [AVIS_STORE_MB], else 1024 MiB). [None] when no directory is
    configured (then [make_sim] is not called) or the configuration is
    uncacheable (see {!bypassing}). Open it once per cell and hand it to
    {!create}: each open scans the directory. *)

val create :
  ?cache_mb:int ->
  ?store:Checkpoint_store.t ->
  workload:Workload.t ->
  make_sim:(scenario:Scenario.t -> Avis_sitl.Sim.t) ->
  checkpoint_times:float list ->
  unit ->
  t
(** [make_sim] must provision a simulator exactly as the campaign's test
    runs do (same seed, config and environment), differing only in the
    scenario's fault schedule. [checkpoint_times] need not be sorted or
    unique; non-positive times are dropped. [create] probes [make_sim]
    once (with the empty scenario) to detect uncacheable configurations.

    [cache_mb] bounds the resident checkpoint bytes; it defaults to the
    [AVIS_CACHE_MB] environment variable, else 1024 MiB (zero, negative
    and malformed values are warned about and replaced by the default).
    When a capture would push the resident set past the budget, whole
    checkpoints are evicted in global least-recently-used order (hits and
    captures both count as uses) until it fits; a lone checkpoint larger
    than the whole budget is itself evicted, so the bound holds
    unconditionally. Eviction only costs future wall-clock (the evicted
    prefix re-simulates cold) — outcomes are unaffected.

    [store] (from {!open_store} on the same provisioning) adds a
    persistent tier behind the in-memory one. Captures are written through
    (lazily — nothing is serialised when the file already exists). Each
    scenario is served from the later of memory's best checkpoint and the
    store's: the same prefix scan over the files, whose winner is picked by
    name and read only when strictly later than memory's, so a fresh
    process forks each scenario from the latest checkpoint any earlier
    process wrote under that scenario's own fault prefix. Stored
    checkpoints are served only on bit-exact key matches, so outcomes
    remain bit-identical to cold runs, across processes. A bypassing
    configuration ignores [store]. *)

val execute : t -> scenario:Scenario.t -> Avis_sitl.Sim.outcome
(** Run one scenario, forking from the latest applicable checkpoint — clean
    or faulty-prefix, in memory or in the store — when one exists, and
    cold otherwise, checkpointing its own prefixes as it runs. Either way
    the outcome is bit-identical to a cold run. *)

val store : t -> Checkpoint_store.t option
(** The persistent tier given to {!create}; [None] when there is none or
    the cache bypasses. *)

val bypassing : t -> bool
(** True when the provisioned runs carry state the cache key cannot encode
    (sensor degradations, probabilistic link faults). Such a cache has no
    capture times and no store, so every [execute] is a cold run counted
    as a miss. *)

type stats = {
  hits : int;  (** Scenarios served from a checkpoint. *)
  misses : int;  (** Scenarios simulated cold. *)
  saved_sim_s : float;
      (** Simulated seconds skipped by restoring instead of replaying. *)
  evictions : int;  (** Checkpoints dropped to stay within the budget. *)
  resident_bytes : int;  (** Current accounted checkpoint bytes. *)
  store_hits : int;
      (** Scenarios forked from the persistent store because its
          checkpoint was later than memory's best (or memory had none);
          0 when no store is configured. *)
  store_misses : int;
      (** Scenarios neither memory nor the store could serve; equal to
          [misses] when a store is configured. *)
  store_bytes : int;
      (** Bytes under the store directory as {!Checkpoint_store.stats}
          counts them: its last scan plus this instance's writes. *)
}

val stats : t -> stats

val enabled_by_env : unit -> bool
(** The [AVIS_PREFIX_CACHE] toggle: caching is on unless the variable is
    set to ["0"], ["false"], ["off"] or ["no"] (case-insensitive). *)
