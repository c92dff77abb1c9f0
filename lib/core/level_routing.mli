(** Level-routing protocols of the randomized algorithm (Section 5, steps
    3c and 3d), shared with the Khan et al. baseline.

    {!route_phase}: every node holding (label, target) pairs forwards one
    unsent pair per round along its recorded shortest path toward the
    target; the first copy of each pair wins at every node (the filtering
    that caps per-target work at O(s + k)), and every traversed edge is
    selected.  {!backtrace_phase}: targets ship their collected label
    bundles back along the recorded reverse chain to one originating
    holder. *)

type route_state = {
  known : (int * int, int) Hashtbl.t;
      (** (label, target) -> first sender; -1 if originated locally *)
  unsent : (int * int) list;
  lhat : int list;  (** labels delivered to this node as a target *)
  marked : int list;  (** edge ids selected by this node's sends *)
}

val route_phase :
  ?env:Dsf_congest.Sim.env ->
  Dsf_graph.Graph.t ->
  Dsf_embed.Virtual_tree.t ->
  origins:(int -> (int * int) list) ->
  route_state array * Dsf_congest.Sim.stats
(** [origins v] is the initial (label, target) list of node [v] (step 3b). *)

type back_msg = { route : int * int; payload : int }

type back_state = {
  b_known : (int * int, int) Hashtbl.t;
  b_queue : back_msg list;
  b_l : int list;  (** labels accepted as the new holder *)
}

val backtrace_phase :
  ?env:Dsf_congest.Sim.env ->
  Dsf_graph.Graph.t ->
  tables:(int -> (int * int, int) Hashtbl.t) ->
  bundles:(int -> back_msg list) ->
  back_state array * Dsf_congest.Sim.stats
(** [tables] are the per-node [known] tables from the route phase;
    [bundles v] the back messages node [v] initiates. *)
