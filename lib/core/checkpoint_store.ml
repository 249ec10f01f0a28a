let default_store_mb = 1024

(* Malformed or non-positive byte budgets fall back to the default with a
   warning, like [Pool.jobs_of_env]: a typo'd AVIS_STORE_MB must not
   silently disable (or unbound) the store. *)
let budget_bytes_of ?store_mb () =
  let mb =
    match store_mb with
    | Some mb when mb > 0 -> mb
    | Some mb ->
      Printf.eprintf
        "[avis] warning: ignoring invalid store_mb=%d (want a positive \
         integer); using %d\n\
         %!"
        mb default_store_mb;
      default_store_mb
    | None ->
      Avis_util.Env.positive_int ~var:"AVIS_STORE_MB" ~default:default_store_mb
        ()
  in
  mb * 1024 * 1024

type t = {
  dir : string;
  fingerprint : string;
  config_key : string;
  budget_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable bytes : int;
      (** Directory size as of the last scan ([create], eviction), plus
          what this instance has written since. *)
}

type stats = { hits : int; misses : int; bytes : int; evictions : int }

let checkpoint_suffix = ".ckpt"
let profile_suffix = ".prof"

let default_fingerprint () =
  match Digest.file Sys.executable_name with
  | d -> Digest.to_hex d
  | exception _ -> "unknown"

let is_stored name =
  Filename.check_suffix name checkpoint_suffix
  || Filename.check_suffix name profile_suffix

let scan_bytes t =
  let total = ref 0 in
  (try
     Array.iter
       (fun name ->
         if is_stored name then
           try
             total :=
               !total + (Unix.stat (Filename.concat t.dir name)).Unix.st_size
           with _ -> ())
       (Sys.readdir t.dir)
   with _ -> ());
  t.bytes <- !total;
  !total

let create ?fingerprint ?store_mb ~dir ~config_key () =
  (try
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
   with _ -> ());
  let fingerprint =
    match fingerprint with Some f -> f | None -> default_fingerprint ()
  in
  let t =
    {
      dir;
      fingerprint;
      config_key;
      budget_bytes = budget_bytes_of ?store_mb ();
      hits = 0;
      misses = 0;
      evictions = 0;
      bytes = 0;
    }
  in
  ignore (scan_bytes t);
  t

let dir t = t.dir

(* The content address: everything that must be bit-identical for a stored
   snapshot to be sound. The null separators keep distinct triples from
   colliding by concatenation. *)
let hash parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
let key_hash t ~fault_key = hash [ t.fingerprint; t.config_key; fault_key ]
let hash_len = 32

let checkpoint_name t ~fault_key ~time =
  Printf.sprintf "%s-%016Lx%s" (key_hash t ~fault_key)
    (Int64.bits_of_float time) checkpoint_suffix

(* A profile is keyed by its own identity bytes, not by [config_key]: the
   golden runs use their own seeds, not the test runs'. *)
let profile_name t ~key =
  hash [ t.fingerprint; "profile"; key ] ^ profile_suffix

(* File layout: magic, format version, MD5 of the file name and payload,
   payload length, payload. Checksumming the name binds the bytes to the
   key they were written under, so a file that lands under another key's
   name (a misdirected rename) fails closed like a bit flip;
   magic/version/length mismatches are detected structurally. *)
let magic = "AVCK"
let format_version = '\002'

(* The payload's digest is taken in place: concatenating the name onto a
   checkpoint-sized string would copy it on every read and write. *)
let frame_digest ~name payload = Digest.string (name ^ Digest.string payload)

let frame_payload ~name payload =
  let b = Buffer.create (String.length payload + 29) in
  Buffer.add_string b magic;
  Buffer.add_char b format_version;
  Buffer.add_string b (frame_digest ~name payload);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.contents b

let header_len = 4 + 1 + 16 + 8

let unframe ~name data =
  let n = String.length data in
  if n < header_len then None
  else if String.sub data 0 4 <> magic then None
  else if data.[4] <> format_version then None
  else
    let digest = String.sub data 5 16 in
    let len = Int64.to_int (String.get_int64_le data 21) in
    if len < 0 || len <> n - header_len then None
    else
      let payload = String.sub data header_len len in
      if frame_digest ~name payload <> digest then None else Some payload

(* Oldest-mtime-first deletion until the directory fits the budget, with
   mtime ties broken by path: coarse filesystem timestamps (1 s mtime
   granularity) routinely leave whole batches of checkpoints with equal
   mtimes, and sorting those by anything else (size, inode order) would
   make the surviving set filesystem-dependent. Other processes may be
   adding or deleting concurrently; every step tolerates files vanishing
   underneath it. *)
let evict_to_budget t =
  if scan_bytes t > t.budget_bytes then begin
    let entries = ref [] in
    (try
       Array.iter
         (fun name ->
           if is_stored name then
             let path = Filename.concat t.dir name in
             try
               let st = Unix.stat path in
               entries :=
                 (st.Unix.st_mtime, path, st.Unix.st_size) :: !entries
             with _ -> ())
         (Sys.readdir t.dir)
     with _ -> ());
    let by_age = List.sort compare !entries in
    let excess = ref (t.bytes - t.budget_bytes) in
    List.iter
      (fun (_, path, size) ->
        if !excess > 0 then begin
          (try
             Sys.remove path;
             excess := !excess - size;
             t.bytes <- t.bytes - size;
             t.evictions <- t.evictions + 1
           with _ -> ())
        end)
      by_age
  end

(* Temp names must be unique across every handle in the process, not per
   handle: two handles on one directory (cells on parallel domains) would
   otherwise open the same temp file and rename each other's bytes into
   place. [Open_excl] makes any remaining clash (a recycled pid's leftover)
   fail the write instead of sharing a file. *)
let tmp_counter = Atomic.make 0

let write t ~name ~payload =
  let framed = frame_payload ~name payload in
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_counter 1))
  in
  let oc =
    open_out_gen
      [ Open_wronly; Open_creat; Open_excl; Open_binary ]
      0o644 tmp
  in
  (try
     output_string oc framed;
     close_out oc;
     (* Atomic on POSIX: a concurrent reader sees either no file or the
        whole file, never a partial write. *)
     Sys.rename tmp (Filename.concat t.dir name)
   with e ->
     (try close_out_noerr oc; Sys.remove tmp with _ -> ());
     raise e);
  t.bytes <- t.bytes + String.length framed;
  if t.bytes > t.budget_bytes then evict_to_budget t

let put t ~fault_key ~time ~payload =
  try
    let name = checkpoint_name t ~fault_key ~time in
    if not (Sys.file_exists (Filename.concat t.dir name)) then
      write t ~name ~payload:(Lazy.force payload)
  with _ -> ()

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with _ -> None

(* The verified payload of one file, LRU-touched (both timestamps to
   "now"). A corrupt file (truncated, bit-flipped, foreign, or under
   another key's name) is deleted so it is never tried again. *)
let read t ~name =
  let path = Filename.concat t.dir name in
  match read_file path with
  | None -> None
  | Some data -> (
    match unframe ~name data with
    | Some payload ->
      (try Unix.utimes path 0.0 0.0 with _ -> ());
      Some payload
    | None ->
      (try Sys.remove path with _ -> ());
      None)

(* Candidates for [windows], chosen by file name alone: one directory
   listing, each checkpoint's key hash matched against the windows' and
   its capture time decoded from the name. Latest first; equal times go to
   the earlier window. *)
let candidates t ~after ~windows =
  let by_hash = Hashtbl.create 8 in
  List.iteri
    (fun i (fault_key, before) ->
      Hashtbl.replace by_hash (key_hash t ~fault_key) (i, fault_key, before))
    windows;
  let name_len = hash_len + 1 + 16 + String.length checkpoint_suffix in
  let found = ref [] in
  (try
     Array.iter
       (fun name ->
         if
           String.length name = name_len
           && name.[hash_len] = '-'
           && Filename.check_suffix name checkpoint_suffix
         then
           Option.iter
             (fun (i, fault_key, before) ->
               match
                 Avis_util.Hex.parse ~digits:16
                   (String.sub name (hash_len + 1) 16)
               with
               | Some bits ->
                 let time = Int64.float_of_bits bits in
                 if time < before && time > after && time >= 0.0 then
                   found := (time, i, fault_key, name) :: !found
               | None -> ())
             (Hashtbl.find_opt by_hash (String.sub name 0 hash_len)))
       (Sys.readdir t.dir)
   with _ -> ());
  List.sort
    (fun (ta, ia, _, _) (tb, ib, _, _) ->
      match compare tb ta with 0 -> compare ia ib | c -> c)
    !found

let lookup_latest ?(after = neg_infinity) t ~windows =
  let rec first = function
    | [] -> None
    | (time, _, fault_key, name) :: rest -> (
      match read t ~name with
      | Some payload -> Some (fault_key, time, payload)
      | None -> first rest)
  in
  first (candidates t ~after ~windows)

let lookup t ~fault_key ~before =
  Option.map
    (fun (_, time, payload) -> (time, payload))
    (lookup_latest t ~windows:[ (fault_key, before) ])

let lookup_profile t ~key = read t ~name:(profile_name t ~key)

let put_profile t ~key ~payload =
  try write t ~name:(profile_name t ~key) ~payload with _ -> ()

let count_hit (t : t) = t.hits <- t.hits + 1
let count_miss (t : t) = t.misses <- t.misses + 1

let stats (t : t) : stats =
  { hits = t.hits; misses = t.misses; bytes = t.bytes; evictions = t.evictions }
