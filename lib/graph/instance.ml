module Uf = Dsf_util.Union_find

type ic = { graph : Graph.t; labels : int array }

type cr = { cr_graph : Graph.t; requests : int list array }

let make_ic graph labels =
  if Array.length labels <> Graph.n graph then
    invalid_arg "Instance.make_ic: labels length mismatch";
  Array.iter
    (fun l -> if l < -1 then invalid_arg "Instance.make_ic: bad label")
    labels;
  { graph; labels }

let make_cr cr_graph requests =
  if Array.length requests <> Graph.n cr_graph then
    invalid_arg "Instance.make_cr: requests length mismatch";
  let n = Graph.n cr_graph in
  Array.iter
    (List.iter (fun w ->
         if w < 0 || w >= n then invalid_arg "Instance.make_cr: bad request"))
    requests;
  { cr_graph; requests }

let terminals inst =
  let acc = ref [] in
  for v = Array.length inst.labels - 1 downto 0 do
    if inst.labels.(v) >= 0 then acc := v :: !acc
  done;
  !acc

let terminal_count inst = List.length (terminals inst)

let used_labels inst =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun l -> if l >= 0 && not (Hashtbl.mem seen l) then Hashtbl.add seen l ())
    inst.labels;
  Hashtbl.fold (fun l () acc -> l :: acc) seen [] |> List.sort compare

let component_count inst = List.length (used_labels inst)

let label_ids inst =
  let values = Array.of_list (used_labels inst) in
  let id_of = Hashtbl.create (Int.max 4 (Array.length values)) in
  Array.iteri (fun id l -> Hashtbl.replace id_of l id) values;
  values, Hashtbl.find id_of

let components inst =
  let h = Hashtbl.create 16 in
  Array.iteri
    (fun v l ->
      if l >= 0 then begin
        let prev = try Hashtbl.find h l with Not_found -> [] in
        Hashtbl.replace h l (v :: prev)
      end)
    inst.labels;
  Hashtbl.fold (fun l vs acc -> (l, List.sort compare vs) :: acc) h []
  |> List.sort compare

let nontrivial_component_count inst =
  components inst |> List.filter (fun (_, vs) -> List.length vs >= 2)
  |> List.length

let minimalize inst =
  let labels = Array.copy inst.labels in
  List.iter
    (fun (_, vs) ->
      match vs with [ v ] -> labels.(v) <- -1 | _ -> ())
    (components inst);
  { inst with labels }

let ic_of_cr cr =
  let n = Graph.n cr.cr_graph in
  let uf = Uf.create n in
  let is_terminal = Array.make n false in
  Array.iteri
    (fun v rs ->
      List.iter
        (fun w ->
          is_terminal.(v) <- true;
          is_terminal.(w) <- true;
          ignore (Uf.union uf v w))
        rs)
    cr.requests;
  (* Use the component representative as the label; remap to 0..k-1. *)
  let remap = Hashtbl.create 16 in
  let next = ref 0 in
  let labels =
    Array.init n (fun v ->
        if not is_terminal.(v) then -1
        else begin
          let r = Uf.find uf v in
          match Hashtbl.find_opt remap r with
          | Some l -> l
          | None ->
              let l = !next in
              incr next;
              Hashtbl.add remap r l;
              l
        end)
  in
  { graph = cr.cr_graph; labels }

let solution_uf inst f = Graph.subgraph_union_find inst.graph f

let is_feasible inst f =
  let uf = solution_uf inst f in
  List.for_all
    (fun (_, vs) ->
      match vs with
      | [] -> true
      | v0 :: rest -> List.for_all (fun v -> Uf.same uf v0 v) rest)
    (components inst)

let cr_is_feasible cr f =
  let uf = Graph.subgraph_union_find cr.cr_graph f in
  Array.for_all (fun ok -> ok)
    (Array.mapi
       (fun v rs -> List.for_all (fun w -> Uf.same uf v w) rs)
       cr.requests)

let solution_weight inst f = Graph.edge_set_weight inst.graph f

let is_forest g f =
  let uf = Uf.create (Graph.n g) in
  Array.for_all
    (fun (e : Graph.edge) -> (not f.(e.id)) || Uf.union uf e.u e.v)
    (Graph.edges g)

(* Minimal subforest: an edge e of the forest f is needed iff the subtree
   hanging below e contains some, but not all, of a label's terminals.  We
   root each tree of f and propagate per-label terminal counts upward with
   small-to-large map merging. *)
let prune inst f =
  let g = inst.graph in
  let n = Graph.n g in
  if not (is_forest g f) then invalid_arg "Instance.prune: not a forest";
  if not (is_feasible inst f) then invalid_arg "Instance.prune: infeasible";
  let total = Hashtbl.create 16 in
  Array.iter
    (fun l ->
      if l >= 0 then
        Hashtbl.replace total l (1 + Option.value ~default:0 (Hashtbl.find_opt total l)))
    inst.labels;
  let keep = Array.make (Graph.m g) false in
  let visited = Array.make n false in
  (* Iterative post-order DFS over each tree of f. *)
  let counts : (int, int) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 1)
  in
  let parent_edge = Array.make n (-1) in
  let order = ref [] in
  for root = 0 to n - 1 do
    if not visited.(root) then begin
      let stack = Stack.create () in
      Stack.push root stack;
      visited.(root) <- true;
      while not (Stack.is_empty stack) do
        let v = Stack.pop stack in
        order := v :: !order;
        Array.iter
          (fun (nb, _, eid) ->
            if f.(eid) && not visited.(nb) then begin
              visited.(nb) <- true;
              parent_edge.(nb) <- eid;
              Stack.push nb stack
            end)
          (Graph.adj g v)
      done
    end
  done;
  (* !order is reverse of visit order = children before parents when
     reversed again... Stack-based preorder: processing !order as-is gives
     nodes in reverse preorder, which is a valid post-order for trees. *)
  List.iter
    (fun v ->
      if inst.labels.(v) >= 0 then begin
        let l = inst.labels.(v) in
        Hashtbl.replace counts.(v) l
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts.(v) l))
      end;
      let eid = parent_edge.(v) in
      if eid >= 0 then begin
        let needed =
          Hashtbl.fold
            (fun l c acc -> acc || c < Hashtbl.find total l)
            counts.(v) false
        in
        if needed then keep.(eid) <- true;
        (* Merge counts into the parent, small-to-large. *)
        let p = Graph.other_endpoint g ~eid v in
        let small, large =
          if Hashtbl.length counts.(v) <= Hashtbl.length counts.(p) then
            counts.(v), counts.(p)
          else counts.(p), counts.(v)
        in
        Hashtbl.iter
          (fun l c ->
            Hashtbl.replace large l
              (c + Option.value ~default:0 (Hashtbl.find_opt large l)))
          small;
        counts.(p) <- large
      end)
    !order;
  keep
