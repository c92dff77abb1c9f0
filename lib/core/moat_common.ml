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
  scale : int;
  ndist : int array array;
  tdist : int array array;
  owner : int array;
  rad : Frac.t array;
}

let setup inst0 ~scale =
  let inst = Instance.minimalize inst0 in
  let g = inst.Instance.graph in
  let ms = create inst in
  let t = Array.length ms.terms in
  if t = 0 then None
  else begin
    let ndist =
      Array.map
        (fun v ->
          Array.map
            (fun d -> if d = max_int then d else d * scale)
            (fst (Paths.dijkstra g ~src:v)))
        ms.terms
    in
    let tdist =
      Array.map
        (fun row ->
          Array.map
            (fun w ->
              if row.(w) = max_int then
                invalid_arg "Moat: terminals of a component disconnected"
              else row.(w))
            ms.terms)
        ndist
    in
    let owner = Array.make (Graph.n g) (-1) in
    Array.iteri (fun ti v -> owner.(v) <- ti) ms.terms;
    Some { graph = g; ms; scale; ndist; tdist; owner; rad = Array.make t Frac.zero }
  end

(* A node joins the first active moat whose growth reaches it: the least
   reduced distance [d - rad] before this growth, then the smaller
   terminal index — Definition 4.6's (distance, owner) order, which the
   distributed emulations freeze their regions by. *)
let grow_active st mu =
  let t = Array.length st.ms.terms in
  Array.iteri
    (fun x o ->
      if o < 0 then begin
        let best = ref (-1) and best_red = ref mu in
        for ti = 0 to t - 1 do
          if active st.ms ti && st.ndist.(ti).(x) < max_int then begin
            let red = Frac.sub (Frac.of_int st.ndist.(ti).(x)) st.rad.(ti) in
            let c = Frac.compare red !best_red in
            if c < 0 || (c = 0 && !best < 0) then begin
              best := ti;
              best_red := red
            end
          end
        done;
        if !best >= 0 then st.owner.(x) <- !best
      end)
    st.owner;
  Array.iteri
    (fun ti _ ->
      if active st.ms ti then st.rad.(ti) <- Frac.add st.rad.(ti) mu)
    st.ms.terms

type event = { mu : Frac.t; vi : int; wi : int }

(* Two active moats grown by [mu] touch at the points at distance
   [rad + mu] from both terminals on a shortest path between them.  When
   each such point is a node already inside a third, inactive moat, the
   touch is not a touch: growth does not pass through an inactive moat,
   so both moats reach that moat at this same growth, and those two
   active-inactive events are what the merge order sees.  A touch inside
   an edge is always real: a moat that reached an inner point of an edge
   from a node owned by a third moat would have touched that moat
   earlier. *)
let blocked st i j mu =
  let di = st.ndist.(i) and dj = st.ndist.(j) in
  let ri = Frac.add st.rad.(i) mu and rj = Frac.add st.rad.(j) mu in
  let mi = Uf.find st.ms.moats i and mj = Uf.find st.ms.moats j in
  let inside_third x =
    let o = st.owner.(x) in
    o >= 0
    &&
    let mo = Uf.find st.ms.moats o in
    mo <> mi && mo <> mj && not (active st.ms o)
  in
  let touched = ref false and real = ref false in
  Array.iteri
    (fun x _ ->
      if Frac.equal (Frac.of_int di.(x)) ri && Frac.equal (Frac.of_int dj.(x)) rj
      then begin
        touched := true;
        if not (inside_third x) then real := true
      end)
    st.owner;
  Array.iter
    (fun (e : Graph.edge) ->
      let w = e.Graph.w * st.scale in
      let inner u v =
        di.(u) < max_int && dj.(v) < max_int
        && di.(u) + w + dj.(v) = st.tdist.(i).(j)
        && Frac.compare (Frac.of_int di.(u)) ri < 0
        && Frac.compare ri (Frac.of_int (di.(u) + w)) < 0
      in
      if inner e.Graph.u e.Graph.v || inner e.Graph.v e.Graph.u then
        real := true)
    (Graph.edges st.graph);
  !touched && not !real

let event_mu st i j =
  let ai = active st.ms i and aj = active st.ms j in
  if Uf.same st.ms.moats i j || not (ai || aj) then None
  else begin
    let slack =
      Frac.sub (Frac.of_int st.tdist.(i).(j)) (Frac.add st.rad.(i) st.rad.(j))
    in
    let mu = if ai && aj then Frac.half slack else slack in
    assert (Frac.sign mu >= 0);
    Some (mu, ai && aj)
  end

let next_event st =
  let t = Array.length st.ms.terms in
  let least = ref None in
  for i = 0 to t - 1 do
    for j = i + 1 to t - 1 do
      match event_mu st i j, !least with
      | Some (mu, _), Some m when Frac.compare mu m >= 0 -> ()
      | Some (mu, _), _ -> least := Some mu
      | None, _ -> ()
    done
  done;
  (* Among the events at the least growth, the first terminal-index pair
     in lexicographic order that is a real touch. *)
  match !least with
  | None -> None
  | Some least ->
      let best = ref None in
      for i = 0 to t - 1 do
        for j = i + 1 to t - 1 do
          if Option.is_none !best then
            match event_mu st i j with
            | Some (mu, both_active)
              when Frac.equal mu least
                   && not (both_active && blocked st i j mu) ->
                best := Some { mu; vi = i; wi = j }
            | _ -> ()
        done
      done;
      (* A blocked touch has active-inactive events at the same growth,
         so some event always qualifies. *)
      assert (Option.is_some !best);
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
