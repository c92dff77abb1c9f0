(** The Set-Disjointness reduction gadgets of Figure 1 (Lemmas 3.1 and
    3.3): hard instances on which any correct Steiner Forest algorithm must
    move Omega(universe) bits across the Alice/Bob cut.

    Left gadget (DSF-CR, Lemma 3.1): Alice holds nodes a_{-1}, a_0,
    a_1..a_N; elements of A attach to a_0, the rest to a_{-1}; Bob builds
    the mirror image.  Four cross edges connect the hubs; the "parallel"
    ones (a_0-b_0, a_{-1}-b_{-1}) are heavy (weight rho*(2N+2)+1), the
    "crossing" ones are light.  Connection requests pair a_i with b_i for
    i in A resp. B.  A rho-approximate solution avoids every heavy edge
    iff A and B are disjoint.

    Right gadget (DSF-IC, Lemma 3.3): two unit-weight stars joined by the
    single edge (a_0, b_0); leaf a_i gets label i iff i in A, leaf b_i
    iff i in B.  Any feasible solution uses the bridge iff the sets
    intersect — so the bridge's presence in the output *is* the
    disjointness answer. *)

type side = Alice | Bob

type cr_gadget = {
  cr : Dsf_graph.Instance.cr;
  cr_side : side array;  (** which player simulates each node *)
  heavy_edges : int list;  (** ids of a_0-b_0 and a_{-1}-b_{-1} *)
  cr_universe : int;
}

type ic_gadget = {
  ic : Dsf_graph.Instance.ic;
  ic_side : side array;
  bridge_edge : int;  (** id of (a_0, b_0) *)
  ic_universe : int;
}

val cr_gadget : universe:int -> rho:int -> a:bool array -> b:bool array -> cr_gadget
(** [a] and [b] are the characteristic vectors of the two sets
    (length [universe]). *)

val ic_gadget : universe:int -> a:bool array -> b:bool array -> ic_gadget

val disjoint : bool array -> bool array -> bool

val cr_answer_consistent : cr_gadget -> bool array -> bool
(** Does the edge set encode the disjointness answer correctly?  I.e.,
    heavy edges are avoided iff the sets are disjoint (assuming the set is
    a rho-approximate feasible solution — the premise of Lemma 3.1). *)

val ic_answer_consistent : ic_gadget -> bool array -> bool
(** The bridge edge is used iff the sets intersect. *)

val cut_bits :
  side array -> (telemetry:Dsf_congest.Telemetry.t -> 'a) -> 'a * int
(** [cut_bits sides f] hands [f] a telemetry carrying a fresh flight
    recorder and returns [f]'s result plus the total bits that crossed
    the Alice/Bob cut in every simulation [f] threaded the telemetry
    through: the bits of every recorded [Send] whose endpoints lie on
    different sides, whatever its fate.  The telemetry is a per-call
    value (pass it as [?telemetry] to the solver entry points, or in the
    [telemetry] field of a {!Dsf_congest.Sim.env}), so concurrent cut
    measurements on separate domains do not interfere. *)

type padding = {
  extra_nodes : int;  (** isolated-chain nodes to inflate n *)
  extra_diameter : int;  (** chain length hung off a_1 to inflate D *)
  extra_components : int;  (** disjoint request pairs (c_i, c_i') to inflate k *)
}

val no_padding : padding

val cr_gadget_padded :
  universe:int -> rho:int -> a:bool array -> b:bool array -> padding:padding ->
  cr_gadget
(** The remark after Lemma 3.1: the hard CR instance keeps its hardness
    while n, D, and k are inflated independently — extra nodes extend a
    chain off a_1 (raising n and, with [extra_diameter], D), and extra
    locally-satisfiable request pairs raise k.  All padding is on Alice's
    side, so it adds nothing to the cut communication.  This is what lets
    the Theorem 3.2 bound combine all three terms. *)

val st_hard : s:int -> rho:int -> Dsf_graph.Instance.ic
(** A Lemma 3.4-style family (shortest s-t path as Steiner Forest with
    t = 2, k = 1): terminals sit at the ends of a path of [s] unit edges —
    the only route any rho-approximation may use — while a hub connected to
    every path node with edges of weight [rho * s + 1] keeps the unweighted
    diameter at 2.  Any algorithm beating Omega~(s) rounds on this family
    would contradict the lower bound of [8]; the E12 experiment checks our
    algorithms' rounds indeed grow ~linearly in s even though D = 2. *)

val random_sets :
  Dsf_util.Rng.t -> universe:int -> density:float -> force_intersect:bool ->
  bool array * bool array
(** Random SD input; [force_intersect] plants exactly one common element
    (the hard instances have |A ∩ B| <= 1). *)
