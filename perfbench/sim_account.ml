(* Simulated flight seconds of one campaign cell, recovered from outside
   the campaign loop.

   The loop's ledger ([progress.spent_s]) mixes two charges: simulated
   runs, at their duration over the speed-up, and model inference. The
   benchmark sees every inference charge as the strategy's [next] returns
   it, so the simulated share is the ledger's growth between two
   [progress] calls minus the inference charged in between. Inference is
   floored exactly as [Budget.charge_inference] floors it, and a [Run]
   with zero inference cost is not charged at all, as in [Campaign.run]. *)

open Avis_core

type t = {
  mutable last_spent_s : float;
  mutable pending_inference_s : float;
  mutable sim_budget_s : float;
}

let create () = { last_spent_s = 0.0; pending_inference_s = 0.0; sim_budget_s = 0.0 }

let inference_charge = function
  | Search.Think cost -> Float.max cost Budget.min_inference_s
  | Search.Run (_, cost) when cost > 0.0 -> Float.max cost Budget.min_inference_s
  | Search.Run _ | Search.Exhausted -> 0.0

let note_step t step =
  t.pending_inference_s <- t.pending_inference_s +. inference_charge step

(* The ledger saturates at the budget, so the last charge of a cell can
   show less growth than was charged; the floor keeps that from counting
   negative flight time. *)
let note_progress t ~spent_s =
  let grown = spent_s -. t.last_spent_s -. t.pending_inference_s in
  t.sim_budget_s <- t.sim_budget_s +. Float.max 0.0 grown;
  t.last_spent_s <- spent_s;
  t.pending_inference_s <- 0.0

let sim_seconds t ~speedup = t.sim_budget_s *. speedup
