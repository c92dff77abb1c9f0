module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance
module Uf = Dsf_util.Union_find
module C = Moat_common

type result = {
  forest : bool array;
  solution : bool array;
  weight : int;
  dual : Frac.t;
  dual_unscaled : float;
  scale : int;
  growth_phases : int;
  merge_phases : int;
  merge_count : int;
  merge_pairs : (int * int) list;
}

(* Integer threshold schedule.  With all distances scaled by
   [scale >= 8 * eps_den / eps_num], starting at µ̂ = ceil(scale / 2) and
   stepping to max(µ̂ + 1, floor(µ̂ * (1 + ε/2))) keeps every step within
   growth factor (1, 1 + ε/2]: the + 1 fallback is only ever needed while
   µ̂ * ε/2 < 2, which the scaling rules out.  The floor is taken as
   µ̂ + floor(µ̂ ε/2) (equal, as µ̂ is an integer), so no intermediate
   grows with eps_den. *)
let next_threshold ~eps_num ~eps_den mu_hat =
  let exact = mu_hat + (mu_hat * eps_num / (2 * eps_den)) in
  max (mu_hat + 1) exact

let run ~eps_num ~eps_den inst0 =
  if eps_num <= 0 || eps_den <= 0 || eps_num > eps_den then
    invalid_arg "Moat_rounded.run: need 0 < eps <= 1";
  let inst = Instance.minimalize inst0 in
  let g = inst.Instance.graph in
  let m = Graph.m g in
  let scale = ((8 * eps_den) + eps_num - 1) / eps_num in
  match C.setup inst ~scale with
  | None ->
      {
        forest = Array.make m false;
        solution = Array.make m false;
        weight = 0;
        dual = Frac.zero;
        dual_unscaled = 0.;
        scale;
        growth_phases = 0;
        merge_phases = 0;
        merge_count = 0;
        merge_pairs = [];
      }
  | Some st ->
      let forest = Array.make m false in
      let uf_nodes = Uf.create (Graph.n g) in
      let dual = ref Frac.zero in
      let total_growth = ref Frac.zero in
      let mu_hat = ref ((scale + 1) / 2) in
      let growth_phases = ref 0 in
      let merge_phases = ref 0 in
      let merge_count = ref 0 in
      let merge_pairs = ref [] in
      let ms = st.C.ms in
      let continue = ref (C.exists_active ms) in
      while !continue do
        let ev = C.next_event st in
        let event_mu = match ev with Some e -> Some e.C.mu | None -> None in
        let hits_threshold =
          match event_mu with
          | None -> true
          | Some mu ->
              Frac.compare
                (Frac.add !total_growth mu)
                (Frac.of_int !mu_hat)
              >= 0
        in
        let act_count = C.active_count ms in
        if hits_threshold then begin
          (* Checkpoint: grow exactly to µ̂, no merge, refresh activity. *)
          let mu = Frac.sub (Frac.of_int !mu_hat) !total_growth in
          assert (Frac.sign mu >= 0);
          dual := Frac.add !dual (Frac.mul_int mu act_count);
          C.grow_active st mu;
          total_growth := Frac.of_int !mu_hat;
          (* Lines 20-25: every moat's status is recomputed. *)
          C.recompute_activity ms;
          mu_hat := next_threshold ~eps_num ~eps_den !mu_hat;
          incr growth_phases;
          incr merge_phases
        end
        else begin
          match ev with
          | None -> assert false
          | Some e ->
              dual := Frac.add !dual (Frac.mul_int e.C.mu act_count);
              C.grow_active st e.C.mu;
              total_growth := Frac.add !total_growth e.C.mu;
              let inactive_involved =
                (not (C.active ms e.C.vi)) || not (C.active ms e.C.wi)
              in
              C.add_path st ~forest ~uf_nodes e;
              C.merge_alg2 ms e.C.vi e.C.wi;
              incr merge_count;
              merge_pairs := (ms.C.terms.(e.C.vi), ms.C.terms.(e.C.wi)) :: !merge_pairs;
              if inactive_involved then incr merge_phases
        end;
        continue := C.exists_active ms
      done;
      let solution = Instance.prune inst forest in
      {
        forest;
        solution;
        weight = Instance.solution_weight inst solution;
        dual = !dual;
        dual_unscaled = Frac.to_float !dual /. float_of_int scale;
        scale;
        growth_phases = !growth_phases;
        merge_phases = !merge_phases;
        merge_count = !merge_count;
        merge_pairs = List.rev !merge_pairs;
      }
