open Dsf_graph
open Dsf_embed

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

(* --------------------------------------------------------------- Le_list *)

let test_le_list_path () =
  let g = Gen.path 6 in
  let t = Le_list.build (rng 1) g in
  Alcotest.(check bool) "matches centralized" true (Le_list.verify_against g t);
  (* Every list starts with the node itself at distance 0. *)
  Array.iteri
    (fun v entries ->
      match entries with
      | e :: _ ->
          check Alcotest.int "self first" v e.Le_list.target;
          check Alcotest.int "distance zero" 0 e.Le_list.dist
      | [] -> Alcotest.fail "empty LE list")
    t.Le_list.lists

let test_le_list_staircase_property () =
  let g = Gen.random_connected (rng 2) ~n:35 ~extra_edges:30 ~max_w:7 in
  let t = Le_list.build (rng 3) g in
  Array.iter
    (fun entries ->
      let rec ascending = function
        | a :: (b :: _ as rest) ->
            a.Le_list.dist <= b.Le_list.dist
            && a.Le_list.rank < b.Le_list.rank
            && ascending rest
        | _ -> true
      in
      Alcotest.(check bool) "staircase" true (ascending entries))
    t.Le_list.lists

let test_le_list_top_rank_everywhere () =
  let g = Gen.random_connected (rng 4) ~n:25 ~extra_edges:20 ~max_w:5 in
  let t = Le_list.build (rng 5) g in
  (* The globally top-ranked node is the last entry of every list. *)
  let top = ref 0 in
  Array.iteri (fun v r -> if r > t.Le_list.ranks.(!top) then top := v) t.Le_list.ranks;
  Array.iter
    (fun entries ->
      let last = List.nth entries (List.length entries - 1) in
      check Alcotest.int "global max last" !top last.Le_list.target)
    t.Le_list.lists

let test_highest_within () =
  let g = Gen.path 5 in
  let t = Le_list.build (rng 6) g in
  (match Le_list.highest_within t 0 0 with
  | Some e -> check Alcotest.int "radius 0 = self" 0 e.Le_list.target
  | None -> Alcotest.fail "self expected");
  match Le_list.highest_within t 0 100 with
  | Some e ->
      let top = ref 0 in
      Array.iteri
        (fun v r -> if r > t.Le_list.ranks.(!top) then top := v)
        t.Le_list.ranks;
      check Alcotest.int "radius inf = top" !top e.Le_list.target
  | None -> Alcotest.fail "top expected"

let prop_le_list_distributed_correct =
  QCheck.Test.make ~name:"distributed LE lists = centralized" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let g = Gen.random_connected r ~n:22 ~extra_edges:18 ~max_w:9 in
      let t = Le_list.build r g in
      Le_list.verify_against g t)

let prop_le_list_logarithmic =
  QCheck.Test.make ~name:"LE lists stay O(log n)-short" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let g = Gen.random_connected r ~n:60 ~extra_edges:60 ~max_w:9 in
      let t = Le_list.build r g in
      (* log2 60 ~ 5.9; whp lists are within a small multiple. *)
      Le_list.max_list_length t <= 24)

(* [verify_against] checks only (target, dist); the routing of Section 5
   also needs the next hops: walking them from [v] toward a listed target
   meets, at every node on the way, an entry for that target whose dist
   plus the weight walked so far is the listed dist, and ends at the
   target after exactly that weight. *)
let prop_le_list_next_hops_reach_targets =
  QCheck.Test.make ~name:"next hops reach every listed target at its dist"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let g = Gen.random_connected r ~n:40 ~extra_edges:40 ~max_w:9 in
      let t = Le_list.build r g in
      let weight u w =
        Array.find_map
          (fun (nb, wt, _) -> if nb = w then Some wt else None)
          (Graph.adj g u)
      in
      let rec walk (e : Le_list.entry) u walked hops =
        match
          List.find_opt
            (fun (k : Le_list.entry) -> k.target = e.target)
            t.Le_list.lists.(u)
        with
        | None -> false
        | Some k when k.dist + walked <> e.dist -> false
        | Some k when u = e.target -> k.next_hop = -1
        | Some k -> (
            hops < Graph.n g
            &&
            match weight u k.next_hop with
            | Some wt -> walk e k.next_hop (walked + wt) (hops + 1)
            | None -> false)
      in
      Array.for_all Fun.id
        (Array.mapi
           (fun v l -> List.for_all (fun e -> walk e v 0 0) l)
           t.Le_list.lists))

(* ----------------------------------------------------------- Virtual_tree *)

let test_vt_ancestors_monotone_rank () =
  let g = Gen.random_connected (rng 7) ~n:30 ~extra_edges:25 ~max_w:8 in
  let vt = Virtual_tree.build (rng 8) ~wd_bound:(Dsf_graph.Paths.diameter_weighted g) g in
  let ranks = vt.Virtual_tree.le.Le_list.ranks in
  Array.iter
    (fun ancs ->
      for i = 1 to Array.length ancs - 1 do
        Alcotest.(check bool) "ranks ascend along the chain" true
          (ranks.(ancs.(i)) >= ranks.(ancs.(i - 1)))
      done)
    vt.Virtual_tree.ancestors

let test_vt_root_is_global_max () =
  let g = Gen.random_connected (rng 9) ~n:30 ~extra_edges:25 ~max_w:8 in
  let vt = Virtual_tree.build (rng 10) ~wd_bound:(Dsf_graph.Paths.diameter_weighted g) g in
  let ranks = vt.Virtual_tree.le.Le_list.ranks in
  let top = ref 0 in
  Array.iteri (fun v r -> if r > ranks.(!top) then top := v) ranks;
  Array.iter
    (fun ancs ->
      check Alcotest.int "same root" !top ancs.(vt.Virtual_tree.levels))
    vt.Virtual_tree.ancestors

let test_vt_dominating_metric () =
  let g = Gen.random_connected (rng 11) ~n:25 ~extra_edges:20 ~max_w:6 in
  let vt = Virtual_tree.build (rng 12) ~wd_bound:(Dsf_graph.Paths.diameter_weighted g) g in
  let apsp = Paths.all_pairs g in
  for u = 0 to 24 do
    for v = u + 1 to 24 do
      Alcotest.(check bool) "tree distance dominates" true
        (Virtual_tree.tree_distance vt u v
        >= float_of_int apsp.(u).(v) -. 1e-9)
    done
  done

let test_vt_beta_range () =
  let g = Gen.path 8 in
  let vt = Virtual_tree.build (rng 13) ~wd_bound:(Dsf_graph.Paths.diameter_weighted g) g in
  Alcotest.(check bool) "beta in [1, 2)" true
    (vt.Virtual_tree.beta_num >= 1024 && vt.Virtual_tree.beta_num < 2048);
  Alcotest.(check bool) "ball radius grows" true
    (Virtual_tree.beta_ball vt 1 > Virtual_tree.beta_ball vt 0)

let test_vt_truncation () =
  let g = Gen.random_connected (rng 14) ~n:40 ~extra_edges:30 ~max_w:8 in
  let vt = Virtual_tree.build (rng 15) ~truncate_at:6 ~wd_bound:(Dsf_graph.Paths.diameter_weighted g) g in
  check Alcotest.int "S size" 6 (List.length vt.Virtual_tree.s_set);
  (* Every node's closest S node is set, and truncated levels point at it. *)
  Array.iteri
    (fun v ancs ->
      Alcotest.(check bool) "closest S assigned" true
        (vt.Virtual_tree.closest_s.(v) >= 0);
      let tl = vt.Virtual_tree.trunc_level.(v) in
      if tl <= vt.Virtual_tree.levels then
        check Alcotest.int "truncated ancestor = closest S"
          vt.Virtual_tree.closest_s.(v) ancs.(tl))
    vt.Virtual_tree.ancestors;
  (* S members truncate at level 0 and map to themselves. *)
  List.iter
    (fun v ->
      check Alcotest.int "S node maps to itself" v vt.Virtual_tree.closest_s.(v))
    vt.Virtual_tree.s_set

let test_vt_routing_reaches_target () =
  let g = Gen.random_connected (rng 16) ~n:30 ~extra_edges:25 ~max_w:8 in
  let vt = Virtual_tree.build (rng 17) ~wd_bound:(Dsf_graph.Paths.diameter_weighted g) g in
  let apsp = Paths.all_pairs g in
  (* From each node, walking next hops toward each ancestor must arrive,
     along a path of exactly the shortest-path weight. *)
  Array.iteri
    (fun v ancs ->
      Array.iter
        (fun w ->
          if w <> v then begin
            let rec walk u acc guard =
              if u = w then Some acc
              else if guard = 0 then None
              else begin
                match Virtual_tree.route_next_hop vt u w with
                | Some nb ->
                    let d =
                      match Graph.find_edge g u nb with
                      | Some eid -> (Graph.edge g eid).Graph.w
                      | None -> 1000000
                    in
                    walk nb (acc + d) (guard - 1)
                | None -> None
              end
            in
            match walk v 0 40 with
            | Some total -> check Alcotest.int "shortest route" apsp.(v).(w) total
            | None -> Alcotest.fail "routing failed"
          end)
        ancs)
    vt.Virtual_tree.ancestors

let test_vt_ball_and_ancestor_distance () =
  let g = Gen.random_connected (rng 21) ~n:20 ~extra_edges:15 ~max_w:6 in
  let vt = Virtual_tree.build (rng 22) ~wd_bound:(Dsf_graph.Paths.diameter_weighted g) g in
  (* Ball radii double per level (up to integer flooring). *)
  for i = 0 to vt.Virtual_tree.levels - 1 do
    let r0 = Virtual_tree.beta_ball vt i and r1 = Virtual_tree.beta_ball vt (i + 1) in
    Alcotest.(check bool) "doubling" true (r1 >= 2 * r0 && r1 <= (2 * r0) + 1)
  done;
  (* Every routing path's weighted length is bounded by the top ball. *)
  let maxd = Virtual_tree.max_ancestor_distance vt in
  Alcotest.(check bool) "bounded by top ball" true
    (maxd <= Virtual_tree.beta_ball vt vt.Virtual_tree.levels);
  Alcotest.(check bool) "positive on nontrivial graphs" true (maxd > 0)

let prop_vt_congestion_logarithmic =
  QCheck.Test.make ~name:"O(log n) distinct paths per node (w.h.p.)" ~count:10
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let g = Gen.random_connected r ~n:50 ~extra_edges:45 ~max_w:8 in
      let vt = Virtual_tree.build r ~wd_bound:(Dsf_graph.Paths.diameter_weighted g) g in
      let ppn = Virtual_tree.paths_per_node vt in
      Array.for_all (fun c -> c <= 30) ppn)

let suites =
  [
    ( "embed.le_list",
      [
        Alcotest.test_case "path" `Quick test_le_list_path;
        Alcotest.test_case "staircase property" `Quick test_le_list_staircase_property;
        Alcotest.test_case "top rank everywhere" `Quick test_le_list_top_rank_everywhere;
        Alcotest.test_case "highest_within" `Quick test_highest_within;
        qtest prop_le_list_distributed_correct;
        qtest prop_le_list_logarithmic;
        qtest prop_le_list_next_hops_reach_targets;
      ] );
    ( "embed.virtual_tree",
      [
        Alcotest.test_case "ancestor ranks ascend" `Quick test_vt_ancestors_monotone_rank;
        Alcotest.test_case "common root" `Quick test_vt_root_is_global_max;
        Alcotest.test_case "dominating metric" `Quick test_vt_dominating_metric;
        Alcotest.test_case "beta range" `Quick test_vt_beta_range;
        Alcotest.test_case "truncation at S" `Quick test_vt_truncation;
        Alcotest.test_case "routing reaches targets" `Quick test_vt_routing_reaches_target;
        Alcotest.test_case "ball radii + max ancestor distance" `Quick
          test_vt_ball_and_ancestor_distance;
        qtest prop_vt_congestion_logarithmic;
      ] );
  ]
