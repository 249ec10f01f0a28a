(* Tail percentiles that are only reported when they are backed by data. *)

type t = { pct : int; value : float; n : int }

(* The rank [Avis_util.Stats.percentile] picks for [pct] of [n] samples,
   so "samples beyond" is counted against the very sample it returns. *)
let rank ~n pct =
  int_of_float (Float.ceil (float_of_int pct /. 100.0 *. float_of_int n))

let min_beyond = 10

(* The highest percentile at or below [want] that has at least ten samples
   beyond it. A tail read off fewer samples is one or two outliers, so the
   rule falls back towards the median rather than report it; below 20
   samples nothing above the median qualifies and the median is returned
   anyway, with its [n] saying how little it rests on. *)
let tail ~want samples =
  let n = List.length samples in
  if n = 0 then invalid_arg "Percentile.tail: no samples";
  let rec pick pct =
    if pct <= 50 || n - rank ~n pct >= min_beyond then max pct 50
    else pick (pct - 1)
  in
  let pct = pick want in
  { pct; value = Avis_util.Stats.percentile (float_of_int pct) samples; n }

let median samples = Avis_util.Stats.percentile 50.0 samples
