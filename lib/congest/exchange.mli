(** One-round full-neighborhood exchange: every node sends one fixed-size
    message to each neighbor.  This is the "u sends v_u to each neighbor"
    step the deterministic algorithms run once per merge phase (Step 3b of
    the Appendix E.1 algorithm) to let boundary edges discover the two
    regions they straddle. *)

val flat_protocol : payload_bits:int -> (int, int) Sim.flat_protocol
(** The exchange as a native flat-engine protocol: the state says
    whether the node has sent yet (0 or 1), messages are bare ints.
    Self-stabilizing under crash-and-restart: a restarted node re-inits
    to "not sent" and simply re-sends, so every node that survives to
    quiescence has sent. *)

val all_neighbors :
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  payload_bits:int ->
  unit
(** Simulates the exchange; [payload_bits] is the per-message size (for a
    region announcement: owner id + offset + activity bit).  Runs
    {!flat_protocol} through {!Fault.sim_run} under a
    ["neighbor_exchange"] span. *)
