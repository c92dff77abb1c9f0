module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance
module Uf = Dsf_util.Union_find
module C = Moat_common

type merge_record = {
  step : int;
  mu : Frac.t;
  active_moats : int;
  pair : int * int;
  phase : int;
  activity_changed : bool;
}

type result = {
  forest : bool array;
  solution : bool array;
  weight : int;
  dual : Frac.t;
  merges : merge_record list;
  phase_count : int;
  final_rad : (int * Frac.t) list;
}

let empty_result m =
  {
    forest = Array.make m false;
    solution = Array.make m false;
    weight = 0;
    dual = Frac.zero;
    merges = [];
    phase_count = 0;
    final_rad = [];
  }

let run inst0 =
  let inst = Instance.minimalize inst0 in
  let g = inst.Instance.graph in
  let m = Graph.m g in
  match C.setup inst ~scale:1 with
  | None -> empty_result m
  | Some st ->
      let forest = Array.make m false in
      let uf_nodes = Uf.create (Graph.n g) in
      let merges = ref [] in
      let dual = ref Frac.zero in
      let step = ref 0 in
      let phase = ref 1 in
      let ms = st.C.ms in
      let continue = ref (C.exists_active ms) in
      while !continue do
        incr step;
        match C.next_event st with
        | None -> continue := false
        | Some ev ->
            let act_count = C.active_count ms in
            dual := Frac.add !dual (Frac.mul_int ev.C.mu act_count);
            C.grow_active st ev.C.mu;
            C.add_path st ~forest ~uf_nodes ev;
            (* The merged moat goes inactive iff it is the only moat left
               carrying its (merged) label (Algorithm 1, lines 28-31). *)
            let changed = C.merge_alg1 ms ev.C.vi ev.C.wi in
            merges :=
              {
                step = !step;
                mu = ev.C.mu;
                active_moats = act_count;
                pair = (ms.C.terms.(ev.C.vi), ms.C.terms.(ev.C.wi));
                phase = !phase;
                activity_changed = changed;
              }
              :: !merges;
            if changed then incr phase;
            continue := C.exists_active ms
      done;
      let solution = Instance.prune inst forest in
      {
        forest;
        solution;
        weight = Instance.solution_weight inst solution;
        dual = !dual;
        merges = List.rev !merges;
        phase_count = (match !merges with [] -> 0 | last :: _ -> last.phase);
        final_rad =
          Array.to_list
            (Array.mapi (fun ti v -> v, st.C.rad.(ti)) ms.C.terms);
      }
