(* A digest of what a campaign concluded, for checking that repeated and
   store-served runs of the same inputs agree bit for bit. *)

open Avis_core

type cell = {
  label : string;
  simulations : int;
  inferences : int;
  spent_s : float;
  findings : (int * string) list;  (** Simulation index, description. *)
}

let of_result ~label (r : Campaign.result) =
  {
    label;
    simulations = r.Campaign.simulations;
    inferences = r.Campaign.inferences;
    spent_s = r.Campaign.wall_clock_spent_s;
    findings =
      List.map
        (fun (f : Campaign.finding) ->
          (f.Campaign.simulation_index, Report.describe f.Campaign.report))
        r.Campaign.findings;
  }

(* Length-prefixed fields, so no two different cells encode alike; the
   spent ledger goes in by its IEEE-754 bits. *)
let encode b c =
  let int n = Buffer.add_int64_le b (Int64.of_int n) in
  let str s =
    int (String.length s);
    Buffer.add_string b s
  in
  str c.label;
  int c.simulations;
  int c.inferences;
  Buffer.add_int64_le b (Int64.bits_of_float c.spent_s);
  int (List.length c.findings);
  List.iter
    (fun (index, description) ->
      int index;
      str description)
    c.findings

let digest cells =
  let b = Buffer.create 1024 in
  List.iter (encode b) cells;
  Digest.to_hex (Digest.string (Buffer.contents b))
