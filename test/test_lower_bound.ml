open Dsf_graph
open Dsf_lower_bound

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

let test_cr_gadget_shape () =
  let a = [| true; false; true; false |] in
  let b = [| false; true; false; false |] in
  let gad = Gadgets.cr_gadget ~universe:4 ~rho:2 ~a ~b in
  let g = gad.Gadgets.cr.Instance.cr_graph in
  check Alcotest.int "n = 2u + 4" 12 (Graph.n g);
  check Alcotest.int "m = 2u + 4" 12 (Graph.m g);
  check Alcotest.int "two heavy edges" 2 (List.length gad.Gadgets.heavy_edges);
  List.iter
    (fun id ->
      check Alcotest.int "heavy weight = rho(2u+2)+1" 21 (Graph.edge g id).Graph.w)
    gad.Gadgets.heavy_edges;
  (* Diameter at most 4 as Lemma 3.1 claims. *)
  Alcotest.(check bool) "diameter <= 4" true (Paths.diameter_unweighted g <= 4)

let test_ic_gadget_shape () =
  let a = [| true; true; false |] in
  let b = [| false; true; true |] in
  let gad = Gadgets.ic_gadget ~universe:3 ~a ~b in
  let g = gad.Gadgets.ic.Instance.graph in
  check Alcotest.int "n = 2u + 2" 8 (Graph.n g);
  Alcotest.(check bool) "diameter <= 3" true (Paths.diameter_unweighted g <= 3);
  (* Only the common element 1 yields a two-terminal component. *)
  let m = Instance.minimalize gad.Gadgets.ic in
  check Alcotest.int "k after minimalize" 1 (Instance.component_count m)

let test_disjointness_helper () =
  Alcotest.(check bool) "disjoint" true
    (Gadgets.disjoint [| true; false |] [| false; true |]);
  Alcotest.(check bool) "intersecting" false
    (Gadgets.disjoint [| true; false |] [| true; true |])

let test_random_sets () =
  let a, b = Gadgets.random_sets (rng 1) ~universe:50 ~density:0.5 ~force_intersect:false in
  Alcotest.(check bool) "disjoint by construction" true (Gadgets.disjoint a b);
  let a2, b2 = Gadgets.random_sets (rng 2) ~universe:50 ~density:0.5 ~force_intersect:true in
  Alcotest.(check bool) "planted intersection" false (Gadgets.disjoint a2 b2);
  let common = ref 0 in
  Array.iteri (fun i x -> if x && b2.(i) then incr common) a2;
  check Alcotest.int "|A ∩ B| = 1" 1 !common

let solve_ic_distributed gad =
  (* The honest pipeline for the IC gadget: the deterministic solver,
     whose distributed minimalization is where the Omega(k) information
     must flow. *)
  Dsf_core.Det_dsf.run gad.Gadgets.ic

let test_ic_bridge_encodes_answer () =
  List.iter
    (fun force ->
      let a, b = Gadgets.random_sets (rng 7) ~universe:10 ~density:0.4 ~force_intersect:force in
      let gad = Gadgets.ic_gadget ~universe:10 ~a ~b in
      let res = solve_ic_distributed gad in
      Alcotest.(check bool)
        (Printf.sprintf "answer consistent (intersect=%b)" force)
        true
        (Gadgets.ic_answer_consistent gad res.Dsf_core.Det_dsf.solution))
    [ false; true ]

let test_cr_heavy_edges_encode_answer () =
  List.iter
    (fun force ->
      let a, b = Gadgets.random_sets (rng 8) ~universe:8 ~density:0.5 ~force_intersect:force in
      let gad = Gadgets.cr_gadget ~universe:8 ~rho:2 ~a ~b in
      let ic = Dsf_core.Transform.cr_to_ic gad.Gadgets.cr in
      let res = Dsf_core.Det_dsf.run ic in
      Alcotest.(check bool) "feasible for the requests" true
        (Instance.cr_is_feasible gad.Gadgets.cr res.Dsf_core.Det_dsf.solution);
      Alcotest.(check bool)
        (Printf.sprintf "answer consistent (intersect=%b)" force)
        true
        (Gadgets.cr_answer_consistent gad res.Dsf_core.Det_dsf.solution))
    [ false; true ]

let test_cut_bits_measured () =
  let a, b = Gadgets.random_sets (rng 9) ~universe:12 ~density:0.5 ~force_intersect:false in
  let gad = Gadgets.cr_gadget ~universe:12 ~rho:2 ~a ~b in
  let _, bits =
    Gadgets.cut_bits gad.Gadgets.cr_side (fun ~telemetry ->
        let ic =
          Dsf_core.Transform.cr_to_ic
             ~env:{ Dsf_congest.Sim.default_env with telemetry = Some telemetry }
             gad.Gadgets.cr
        in
        Dsf_core.Det_dsf.run ~telemetry ic)
  in
  Alcotest.(check bool) "nontrivial communication across the cut" true (bits > 0)

let test_cut_bits_scale_with_universe () =
  let measure u =
    let a, b = Gadgets.random_sets (rng u) ~universe:u ~density:0.5 ~force_intersect:false in
    let gad = Gadgets.cr_gadget ~universe:u ~rho:2 ~a ~b in
    let _, bits =
      Gadgets.cut_bits gad.Gadgets.cr_side (fun ~telemetry ->
          let ic =
            Dsf_core.Transform.cr_to_ic
               ~env:
                 { Dsf_congest.Sim.default_env with telemetry = Some telemetry }
               gad.Gadgets.cr
          in
          Dsf_core.Det_dsf.run ~telemetry ic)
    in
    bits
  in
  let b8 = measure 8 and b32 = measure 32 in
  Alcotest.(check bool) "bits grow with the universe" true (b32 > 2 * b8)

let test_cut_bits_scoping () =
  (* The cut meter's recorder taps the runs [f] threads its telemetry
     through and nothing else: with every node on its own side, the cut
     bits are exactly the run's bits, and a run outside [f] adds none. *)
  let g = Gen.path 4 in
  let sides =
    Array.init 4 (fun v -> if v mod 2 = 0 then Gadgets.Alice else Gadgets.Bob)
  in
  let stats, bits =
    Gadgets.cut_bits sides (fun ~telemetry ->
        let _, stats =
          Dsf_congest.Bfs.build
            ~env:{ Dsf_congest.Sim.default_env with telemetry = Some telemetry }
            g ~root:0
        in
        ignore (Dsf_congest.Bfs.build g ~root:0);
        stats)
  in
  Alcotest.(check bool) "recorded inside" true (bits > 0);
  check Alcotest.int "cut meter sees the run's bits"
    stats.Dsf_congest.Sim.total_bits bits

let prop_ic_gadget_answers =
  QCheck.Test.make
    ~name:"IC gadget: bridge in solution iff sets intersect" ~count:12
    QCheck.(pair (int_range 3 12) bool)
    (fun (u, force) ->
      let a, b = Gadgets.random_sets (rng (u * 2 + Bool.to_int force)) ~universe:u
          ~density:0.5 ~force_intersect:force
      in
      (* Need at least one request on each side for a meaningful instance. *)
      let gad = Gadgets.ic_gadget ~universe:u ~a ~b in
      let res = solve_ic_distributed gad in
      Gadgets.ic_answer_consistent gad res.Dsf_core.Det_dsf.solution)

let suites =
  [
    ( "lower_bound.gadgets",
      [
        Alcotest.test_case "CR gadget shape (Fig 1 left)" `Quick test_cr_gadget_shape;
        Alcotest.test_case "IC gadget shape (Fig 1 right)" `Quick test_ic_gadget_shape;
        Alcotest.test_case "disjointness" `Quick test_disjointness_helper;
        Alcotest.test_case "random sets" `Quick test_random_sets;
        Alcotest.test_case "IC bridge = SD answer" `Quick test_ic_bridge_encodes_answer;
        Alcotest.test_case "CR heavy edges = SD answer" `Quick test_cr_heavy_edges_encode_answer;
        Alcotest.test_case "cut bits measured" `Quick test_cut_bits_measured;
        Alcotest.test_case "cut bits scale" `Quick test_cut_bits_scale_with_universe;
        Alcotest.test_case "cut meter scoping" `Quick test_cut_bits_scoping;
        qtest prop_ic_gadget_answers;
      ] );
  ]

(* Appended: padded-gadget tests (the remarks after Lemma 3.1). *)

let test_padded_gadget_shape () =
  let a = [| true; false; true |] and b = [| false; true; false |] in
  let padding =
    { Gadgets.extra_nodes = 10; extra_diameter = 6; extra_components = 4 }
  in
  let base = Gadgets.cr_gadget ~universe:3 ~rho:2 ~a ~b in
  let padded = Gadgets.cr_gadget_padded ~universe:3 ~rho:2 ~a ~b ~padding in
  let g0 = base.Gadgets.cr.Instance.cr_graph in
  let g = padded.Gadgets.cr.Instance.cr_graph in
  check Alcotest.int "n inflated" (Graph.n g0 + 16 + 8) (Graph.n g);
  Alcotest.(check bool) "diameter inflated" true
    (Paths.diameter_unweighted g > Paths.diameter_unweighted g0);
  (* k inflated: the request components include the padding pairs. *)
  let ic = Instance.ic_of_cr padded.Gadgets.cr in
  let ic0 = Instance.ic_of_cr base.Gadgets.cr in
  check Alcotest.int "k inflated" (Instance.component_count ic0 + 4)
    (Instance.component_count ic)

let test_padded_gadget_still_encodes_answer () =
  List.iter
    (fun force ->
      let a, b =
        Gadgets.random_sets (rng 17) ~universe:6 ~density:0.5
          ~force_intersect:force
      in
      let padding =
        { Gadgets.extra_nodes = 6; extra_diameter = 3; extra_components = 2 }
      in
      let gad = Gadgets.cr_gadget_padded ~universe:6 ~rho:2 ~a ~b ~padding in
      let ic = Dsf_core.Transform.cr_to_ic gad.Gadgets.cr in
      let res = Dsf_core.Det_dsf.run ic in
      Alcotest.(check bool) "feasible" true
        (Instance.cr_is_feasible gad.Gadgets.cr res.Dsf_core.Det_dsf.solution);
      Alcotest.(check bool) "answer preserved" true
        (Gadgets.cr_answer_consistent gad res.Dsf_core.Det_dsf.solution))
    [ false; true ]

let test_padding_stays_off_the_cut () =
  (* The padded instance must not move MORE bits across the cut than the
     padding-free one by more than the unavoidable broadcast of the extra
     components' bookkeeping. *)
  let a, b =
    Gadgets.random_sets (rng 18) ~universe:8 ~density:0.5 ~force_intersect:false
  in
  let solve cr side =
    snd
      (Gadgets.cut_bits side (fun ~telemetry ->
           let ic =
             Dsf_core.Transform.cr_to_ic
                ~env:
                  { Dsf_congest.Sim.default_env with
                    telemetry = Some telemetry }
                cr
           in
           Dsf_core.Det_dsf.run ~telemetry ic))
  in
  let base = Gadgets.cr_gadget ~universe:8 ~rho:2 ~a ~b in
  let padding =
    { Gadgets.extra_nodes = 20; extra_diameter = 0; extra_components = 0 }
  in
  let padded = Gadgets.cr_gadget_padded ~universe:8 ~rho:2 ~a ~b ~padding in
  let bits0 = solve base.Gadgets.cr base.Gadgets.cr_side in
  let bits1 = solve padded.Gadgets.cr padded.Gadgets.cr_side in
  Alcotest.(check bool) "node padding does not blow up cut traffic" true
    (bits1 <= 3 * bits0)

let padded_suites =
  [
    ( "lower_bound.padding",
      [
        Alcotest.test_case "shape" `Quick test_padded_gadget_shape;
        Alcotest.test_case "answer preserved" `Quick test_padded_gadget_still_encodes_answer;
        Alcotest.test_case "padding off the cut" `Quick test_padding_stays_off_the_cut;
      ] );
  ]

let suites = suites @ padded_suites
