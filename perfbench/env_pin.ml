(* Every environment variable that changes the work a campaign does, and
   the value the benchmark runs it with. Each value is the variable's
   default spelled out, except that no store, journal or trace is
   attached: a leftover AVIS_STORE_DIR would double the cost of a cold
   cell and warm the next run. An empty AVIS_STORE_DIR means "no store"
   to [Prefix_cache.create]; AVIS_JOURNAL, AVIS_BUDGET and AVIS_JOBS are
   read only by the bench harness and the CLI, and are pinned so that
   nothing this process starts can inherit them. *)
let pinned =
  [
    ("AVIS_PREFIX_CACHE", "1");
    ("AVIS_LANES", "1");
    ("AVIS_STORE_DIR", "");
    ("AVIS_STORE_MB", "1024");
    ("AVIS_CACHE_MB", "1024");
    ("AVIS_JOURNAL", "");
    ("AVIS_TRACE", "0");
    ("AVIS_JOBS", "1");
    ("AVIS_BUDGET", "");
  ]

(* Set every pinned variable and return what each held before. *)
let pin () =
  List.map
    (fun (var, value) ->
      let found = Sys.getenv_opt var in
      Unix.putenv var value;
      (var, found))
    pinned

let render found =
  String.concat " "
    (List.map
       (fun (var, value) ->
         match value with
         | None -> var ^ "=<unset>"
         | Some v -> Printf.sprintf "%s=%S" var v)
       found)
