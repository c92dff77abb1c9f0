module Graph = Dsf_graph.Graph
module Paths = Dsf_graph.Paths
module Instance = Dsf_graph.Instance
module Uf = Dsf_util.Union_find

type t = {
  terms : int array;
  tindex : int array;
  init_label : int array;
  label_id : int array;
  label_value : int array;
  moats : Uf.t;
  label_uf : Uf.t;
  act : bool array;
}

let create inst =
  let terms = Array.of_list (Instance.terminals inst) in
  let t = Array.length terms in
  let tindex = Array.make (Graph.n inst.Instance.graph) (-1) in
  Array.iteri (fun i v -> tindex.(v) <- i) terms;
  let init_label = Array.map (fun v -> inst.Instance.labels.(v)) terms in
  let label_value, id_of = Instance.label_ids inst in
  {
    terms;
    tindex;
    init_label;
    label_id = Array.map id_of init_label;
    label_value;
    moats = Uf.create t;
    label_uf = Uf.create (Array.length label_value);
    act = Array.make t true;
  }

let copy ms =
  {
    ms with
    moats = Uf.copy ms.moats;
    label_uf = Uf.copy ms.label_uf;
    act = Array.copy ms.act;
  }

let label_root ms ti = Uf.find ms.label_uf ms.label_id.(ti)
let label ms ti = ms.label_value.(label_root ms ti)

let active ms ti = ms.act.(Uf.find ms.moats ti)

let is_lone_label ms ti =
  let rep = Uf.find ms.moats ti in
  let lbl = label ms ti in
  let lone = ref true in
  Array.iteri
    (fun tj _ ->
      if Uf.find ms.moats tj <> rep && label ms tj = lbl then lone := false)
    ms.terms;
  !lone

(* A moat's representative is one of its terminal indices. *)
let is_rep ms ti = Uf.find ms.moats ti = ti

let exists_active ms =
  let found = ref false in
  Array.iteri (fun ti _ -> if active ms ti then found := true) ms.terms;
  !found

let active_count ms =
  let c = ref 0 in
  Array.iteri (fun ti _ -> if is_rep ms ti && ms.act.(ti) then incr c) ms.terms;
  !c

(* Union the two moats and their labels; returns the merged moat. *)
let union ms a b =
  let la = label_root ms a and lb = label_root ms b in
  ignore (Uf.union ms.moats a b);
  if la <> lb then ignore (Uf.union ms.label_uf la lb);
  Uf.find ms.moats a

(* Only the merged moat's status can change, so a flip is a difference
   from either side's status before the merge. *)
let merge_alg1 ms a b =
  let was_a = active ms a and was_b = active ms b in
  let rep = union ms a b in
  let now = not (is_lone_label ms a) in
  ms.act.(rep) <- now;
  now <> was_a || now <> was_b

let merge_alg2 ms a b = ms.act.(union ms a b) <- true

let recompute_activity ms =
  Array.iteri
    (fun ti _ -> if is_rep ms ti then ms.act.(ti) <- not (is_lone_label ms ti))
    ms.terms

type state = {
  graph : Graph.t;
  ms : t;
  tdist : int array array;
  rad : Frac.t array;
}

let setup inst0 ~scale =
  let inst = Instance.minimalize inst0 in
  let g = inst.Instance.graph in
  let ms = create inst in
  let t = Array.length ms.terms in
  if t = 0 then None
  else begin
    let node_dist =
      Array.map (fun v -> fst (Paths.dijkstra g ~src:v)) ms.terms
    in
    let tdist =
      Array.map
        (fun row ->
          Array.map
            (fun w ->
              if row.(w) = max_int then
                invalid_arg "Moat: terminals of a component disconnected"
              else row.(w) * scale)
            ms.terms)
        node_dist
    in
    Some { graph = g; ms; tdist; rad = Array.make t Frac.zero }
  end

let grow_active st mu =
  Array.iteri
    (fun ti _ ->
      if active st.ms ti then st.rad.(ti) <- Frac.add st.rad.(ti) mu)
    st.ms.terms

type event = { mu : Frac.t; vi : int; wi : int }

let next_event st =
  let best = ref None in
  let t = Array.length st.ms.terms in
  for i = 0 to t - 1 do
    for j = i + 1 to t - 1 do
      if not (Uf.same st.ms.moats i j) then begin
        let ai = active st.ms i and aj = active st.ms j in
        if ai || aj then begin
          let slack =
            Frac.sub
              (Frac.of_int st.tdist.(i).(j))
              (Frac.add st.rad.(i) st.rad.(j))
          in
          let mu = if ai && aj then Frac.half slack else slack in
          assert (Frac.sign mu >= 0);
          let better =
            match !best with
            | None -> true
            | Some b ->
                let c = Frac.compare mu b.mu in
                c < 0 || (c = 0 && (i < b.vi || (i = b.vi && j < b.wi)))
          in
          if better then best := Some { mu; vi = i; wi = j }
        end
      end
    done
  done;
  !best

let add_path st ~forest ~uf_nodes ev =
  let g = st.graph in
  match
    Paths.shortest_path g ~src:st.ms.terms.(ev.vi) ~dst:st.ms.terms.(ev.wi)
  with
  | None -> invalid_arg "Moat: terminals disconnected"
  | Some (nodes, _) ->
      List.iter
        (fun eid ->
          let u, v = Graph.endpoints g eid in
          if Uf.union uf_nodes u v then forest.(eid) <- true)
        (Paths.path_edges g nodes)
