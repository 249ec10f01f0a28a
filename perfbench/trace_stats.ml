(* Validating a traced run's Chrome trace and reading each span's self
   time off it.

   The validation applies bench/trace_check's rules: every event is named
   and has a known phase, spans and counters have a non-negative
   timestamp, spans a non-negative duration, counters an [args] object
   and a name the library is known to emit. The known counters are
   trace_check's list plus the three persistent-store counters that
   [Prefix_cache] emits and trace_check does not yet accept. *)

open Avis_util

type span = { name : string; tid : int; ts : float; dur : float }
(** [ts] and [dur] in microseconds, as in the trace. *)

let known_counters =
  [
    "cache.hits"; "cache.misses"; "cache.bypasses"; "cache.evictions";
    "cache.resident_bytes"; "snapshot.bytes"; "pool.queue_depth";
    "pool.queue_wait_s"; "budget.spent_s"; "link.dropped"; "link.corrupted";
    "link.duplicated"; "lanes.active"; "lanes.forks"; "lanes.retired";
    "cell.retries"; "cell.quarantined"; "cell.deadline_hits"; "store.hits";
    "store.misses"; "store.bytes";
  ]

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let check_event i ev =
  let number k =
    match Json.member k ev with Some (Json.Number f) -> Some f | _ -> None
  in
  let name =
    match Json.member "name" ev with
    | Some (Json.String n) -> n
    | _ -> invalid "event %d has no string \"name\"" i
  in
  let ts () =
    match number "ts" with
    | Some t when t >= 0.0 -> t
    | _ -> invalid "event %d (%s) has no non-negative \"ts\"" i name
  in
  match Json.member "ph" ev with
  | Some (Json.String "X") ->
    let ts = ts () in
    let dur =
      match number "dur" with
      | Some d when d >= 0.0 -> d
      | _ -> invalid "span %d (%s) has no non-negative \"dur\"" i name
    in
    let tid = match number "tid" with Some t -> int_of_float t | None -> 0 in
    Some { name; tid; ts; dur }
  | Some (Json.String "C") ->
    ignore (ts () : float);
    if not (List.mem name known_counters) then
      invalid "counter %d has unknown name %S" i name;
    (match Json.member "args" ev with
    | Some (Json.Assoc _) -> None
    | _ -> invalid "counter %d (%s) has no \"args\" object" i name)
  | Some (Json.String "i") ->
    ignore (ts () : float);
    None
  | Some (Json.String "M") -> None
  | _ -> invalid "event %d (%s) has no known \"ph\"" i name

(* The spans of a trace, or why it is not a valid one. *)
let spans_of_json json =
  match Json.member "traceEvents" json with
  | Some (Json.List events) -> (
    match List.concat (List.mapi (fun i ev -> Option.to_list (check_event i ev)) events) with
    | [] -> Error "no complete (\"X\") span events"
    | spans -> Ok spans
    | exception Invalid m -> Error m)
  | _ -> Error "no \"traceEvents\" array"

(* Spans end in order of nesting on their thread, so sorting by start
   (longer first on ties) visits every parent before its children; a
   stack then gives each span its direct children, whose durations are
   what its self time excludes. Timestamps are rounded microseconds, so
   containment allows a nanosecond of slack. *)
let self_times spans =
  let totals = Hashtbl.create 32 in
  let credit name s =
    Hashtbl.replace totals name
      (s +. Option.value ~default:0.0 (Hashtbl.find_opt totals name))
  in
  let slack = 1e-3 in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.iter
    (fun _ thread ->
      let sorted =
        List.sort
          (fun a b ->
            match Float.compare a.ts b.ts with 0 -> Float.compare b.dur a.dur | c -> c)
          thread
      in
      (* Open spans, innermost first, each with its children's total. *)
      let stack = ref [] in
      let close (s, children) = credit s.name (s.dur -. children) in
      List.iter
        (fun s ->
          let rec settle () =
            match !stack with
            | (p, children) :: rest ->
              if s.ts +. s.dur <= p.ts +. p.dur +. slack then
                stack := (p, children +. s.dur) :: rest
              else begin
                close (p, children);
                stack := rest;
                settle ()
              end
            | [] -> ()
          in
          settle ();
          stack := (s, 0.0) :: !stack)
        sorted;
      List.iter close !stack)
    by_tid;
  Hashtbl.fold (fun name us acc -> (name, us /. 1e6) :: acc) totals []
  |> List.sort compare
