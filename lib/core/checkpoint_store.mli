(** Persistent, content-addressed checkpoint store.

    The prefix cache ({!Prefix_cache}) holds checkpoints in memory, so they
    die with the process. The store persists them to a directory shared
    across processes and runs: a campaign re-run with the same binary,
    configuration and seed forks from checkpoints written by an earlier
    process instead of re-simulating its clean prefix. It also keeps each
    campaign's golden profiling runs ({!lookup_profile}), so a second
    process judges its runs against the same monitor without flying them
    again.

    {2 Key anatomy}

    A checkpoint is addressed by the MD5 of
    [(code fingerprint, canonical config bytes, canonical fault-set key)]
    plus the capture time:

    - the {e code fingerprint} defaults to the digest of the running
      executable, so checkpoints written by a different build are invisible
      (stale-fingerprint entries are never served, only evicted);
    - the {e config bytes} are {!Avis_sitl.Sim.config_to_bytes} of the
      campaign configuration (policy, bugs, seed, dt, faults profile,
      environment, airframe) plus the workload identity;
    - the {e fault-set key} is the prefix cache's canonical encoding of the
      faults active at capture time (times by their IEEE-754 bits);
    - the capture {e time} is the simulated time of the snapshot, encoded
      in the filename by its bits.

    Runs agree on a key only when their histories are bit-identical, which
    is exactly when serving the stored snapshot is sound.

    A profile file ([.prof]) is addressed by the MD5 of the code
    fingerprint and the caller's own identity bytes for the profile; the
    handle's config bytes play no part, so the profile's key carries its
    own seed, not the test runs'.

    {2 Durability and corruption}

    Files are written to a temp name unique within the process and
    atomically renamed into place, so concurrent writers — other processes
    or other handles of this one on parallel domains — and crashed
    processes never leave a partial or foreign file under a valid key.
    Every file carries a header (format version 2) whose checksum covers
    the file's own name as well as its payload: a truncated, bit-flipped or
    otherwise malformed file, and a whole file that ended up under another
    key's name, is detected at read time, deleted, and reported as [None].
    Files of the version-1 format read as corrupt and are deleted the same
    way. A corrupt store can cost wall-clock, never a wrong outcome.

    {2 Eviction}

    The store is bounded by [store_mb] (default the [AVIS_STORE_MB]
    environment variable, else 1024 MiB). When the directory exceeds the
    budget, files (checkpoints and profiles alike) are deleted
    oldest-mtime-first — equal mtimes (coarse filesystem timestamp
    granularity) are broken deterministically by path order, so the
    surviving set does not depend on the filesystem; serving a file
    touches its mtime, making the policy LRU across processes.

    All I/O failures degrade to cache misses; the store never raises out of
    [put]/[lookup] and their profile counterparts. *)

type t

val create :
  ?fingerprint:string -> ?store_mb:int -> dir:string -> config_key:string -> unit -> t
(** Open (creating if needed) the store rooted at [dir]. [config_key] is
    the canonical configuration identity shared by every checkpoint this
    instance reads or writes. [fingerprint] overrides the code fingerprint
    (the digest of the running executable by default) — tests use this to
    simulate a rebuilt binary. [store_mb] bounds the directory size;
    non-positive or malformed values (including from [AVIS_STORE_MB]) are
    warned about and replaced by the 1024 MiB default. *)

val dir : t -> string

val put : t -> fault_key:string -> time:float -> payload:string Lazy.t -> unit
(** Persist a checkpoint. The payload is not forced when a file for this
    exact key and time already exists. Failures are silently ignored (the
    in-memory cache is unaffected). *)

val lookup_latest :
  ?after:float ->
  t ->
  windows:(string * float) list ->
  (string * float * string) option
(** The latest stored checkpoint over several fault keys at once, as
    [(fault_key, time, payload)]: each window [(fault_key, before)] admits
    the checkpoints under [fault_key] taken strictly before [before], and
    only those taken strictly after [after] (default [neg_infinity]) are
    considered. The winner is chosen by file name from one directory
    listing; only it is read, verified and LRU-touched (its mtime
    refreshed). A corrupt winner is deleted and the next candidate tried.
    Equal times go to the earlier window. *)

val lookup : t -> fault_key:string -> before:float -> (float * string) option
(** [lookup_latest] over the single window [(fault_key, before)], as
    [(time, payload)]. *)

val lookup_profile : t -> key:string -> string option
(** The profile payload stored under the identity bytes [key], verified
    and LRU-touched; [None] when absent or corrupt (a corrupt file is
    deleted). Not counted in {!stats}' hits and misses, which count
    scenario forks only. *)

val put_profile : t -> key:string -> payload:string -> unit
(** Persist a profile under [key], replacing any file already there.
    Failures are silently ignored. *)

val count_hit : t -> unit
(** Record that a [lookup] result was actually served. *)

val count_miss : t -> unit
(** Record that a scenario had to run cold as far as the store is
    concerned. *)

type stats = {
  hits : int;  (** Scenarios served from a stored checkpoint. *)
  misses : int;  (** Scenarios the store could not serve. *)
  bytes : int;
      (** Bytes on disk under the store directory as of the last scan —
          at {!create} and whenever a [put] takes the directory past its
          budget — plus what this instance has written since. Files other
          processes add or delete in between are not seen until the next
          scan. *)
  evictions : int;  (** Files deleted by this instance to stay in budget. *)
}

val stats : t -> stats
(** Constant time: reads counters, never the directory. *)

val default_store_mb : int

val default_fingerprint : unit -> string
(** The code fingerprint used when [create]'s [?fingerprint] is omitted:
    the hex digest of the running executable ([Sys.executable_name]), or
    ["unknown"] when it cannot be read. {!Run_journal} keys its memos with
    the same fingerprint, so a rebuilt binary invalidates both stores and
    journals consistently. *)
