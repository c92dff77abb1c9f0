(** One-round full-neighborhood exchange: every node sends one fixed-size
    message to each neighbor.  This is the "u sends v_u to each neighbor"
    step the deterministic algorithms run once per merge phase (Step 3b of
    the Appendix E.1 algorithm) to let boundary edges discover the two
    regions they straddle. *)

val protocol : payload_bits:int -> (bool, unit) Sim.protocol
(** The raw protocol (state = "have I sent yet").  Self-stabilizing under
    crash-and-restart: a restarted node re-inits to [false] and simply
    re-sends, so every node that survives to quiescence has sent. *)

val flat_protocol : payload_bits:int -> (int, int) Sim.flat_protocol
(** The native flat-engine port of {!protocol}: bare-int state and
    messages, otherwise identical. *)

val all_neighbors :
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  payload_bits:int ->
  Sim.stats
(** Simulates the exchange; [payload_bits] is the per-message size (for a
    region announcement: owner id + offset + activity bit).  Runs under
    a ["neighbor_exchange"] span: the native {!flat_protocol} when
    {!Sim.native_ports} holds (stats and traces bit-identical to
    {!protocol}), the classic {!protocol} otherwise. *)
