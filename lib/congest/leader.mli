(** Leader election by max-id flooding — the step the paper's appendix
    implicitly performs whenever it roots a BFS tree "at the node with the
    largest identifier": every node floods the largest id it has heard, and
    after D rounds all agree.  O(D) simulated rounds, O(log n) bits per
    message. *)

type result = {
  leader : int;
  rounds : int;
  messages : int;
  agreed : bool;
      (** every node ended on [leader].  Always [true] without faults
          (asserted).  Under crash-and-restart plans the raw protocol does
          {e not} guarantee agreement — a node restarted after the max-id
          wave has passed quiesces on a stale leader — so faulted runs
          report the breakage here instead of hiding it. *)
}

type state = { best : int; dirty : bool }

val protocol : Dsf_graph.Graph.t -> (state, int) Sim.protocol
(** The raw flood protocol, exposed for the chaos differential suite. *)

val elect : ?env:Sim.env -> Dsf_graph.Graph.t -> result
(** Requires a connected graph; the elected leader is the maximum node id
    (= {!Bfs.max_id_root}) and, absent faults, every node knows it on
    termination.  [leader] is the maximum of the per-node answers (the
    max-id node always believes in itself, so this is the true winner
    even when [agreed] is false).  A [Chaos] network runs the flood
    hardened with checkpoint recovery ({!Fault.sim_run}): under any plan
    — crash-restart included — the run reconverges and [agreed] holds
    (asserted, like the fault-free case). *)
