(* Level-routing protocols shared by the randomized algorithm (Section 5,
   steps 3c and 3d) and the Khan et al. baseline: label-to-target routing
   with per-(label, target) filtering, and bundle backtracing. *)

module Graph = Dsf_graph.Graph
module Sim = Dsf_congest.Sim
module Bitsize = Dsf_util.Bitsize
module Virtual_tree = Dsf_embed.Virtual_tree

(* ----------------------------------------------------------------------- *)
(* Step 3c: label-to-ancestor routing with per-(label, target) filtering.   *)
(* Each node forwards one unsent (label, target) pair per round along its   *)
(* recorded shortest path; traversed edges are selected into F.             *)
(* ----------------------------------------------------------------------- *)

type route_state = {
  known : (int * int, int) Hashtbl.t;
      (** (label, target) -> first sender (-1 if originated here) *)
  unsent : (int * int) list;  (** queue, FIFO *)
  lhat : int list;  (** labels delivered to me as a target *)
  marked : int list;  (** edge ids selected by my sends *)
}

let route_phase ?(env = Sim.default_env) g vt ~origins =
  let n = Graph.n g in
  let proto : (route_state, int * int) Sim.protocol =
    {
      init =
        (fun view ->
          let v = view.Sim.node in
          let known = Hashtbl.create 8 in
          let mine = origins v in
          List.iter (fun lw -> Hashtbl.replace known lw (-1)) mine;
          { known; unsent = mine; lhat = []; marked = [] });
      step =
        (fun view ~round:_ st ~inbox ->
          let v = view.Sim.node in
          let st =
            List.fold_left
              (fun st (sender, ((_, _) as lw)) ->
                if Hashtbl.mem st.known lw then st
                else begin
                  Hashtbl.replace st.known lw sender;
                  { st with unsent = st.unsent @ [ lw ] }
                end)
              st inbox
          in
          (* Deliver-to-self entries are free; handle them all, then send
             at most one remote entry. *)
          let rec dispatch st =
            match st.unsent with
            | [] -> st, []
            | ((lam, w) as lw) :: rest ->
                if w = v then
                  dispatch { st with unsent = rest; lhat = lam :: st.lhat }
                else begin
                  match Virtual_tree.route_next_hop vt v w with
                  | None ->
                      (* No route (stale entry); drop it. *)
                      dispatch { st with unsent = rest }
                  | Some nb ->
                      let eid =
                        match Graph.find_edge g v nb with
                        | Some id -> id
                        | None -> invalid_arg "Rand_dsf: next hop not adjacent"
                      in
                      ( { st with unsent = rest; marked = eid :: st.marked },
                        [ nb, lw ] )
                end
          in
          dispatch st);
      is_done = (fun st -> st.unsent = []);
      msg_bits = (fun _ -> 2 * Bitsize.id_bits ~n);
      (* A node with nothing unsent and no mail returns its state as is
         and sends nothing, so only mail or a pending entry wakes it. *)
      wake = Some Sim.never;
    }
  in
  Sim.run ~env g proto

(* ----------------------------------------------------------------------- *)
(* Step 3d: targets send their collected labels back along the recorded     *)
(* (label, target) chain to one originating holder.                         *)
(* ----------------------------------------------------------------------- *)

type back_msg = { route : int * int; payload : int }

type back_state = {
  b_known : (int * int, int) Hashtbl.t;  (** same tables as the route phase *)
  b_queue : back_msg list;
  b_l : int list;  (** labels accepted as the new holder *)
}

let backtrace_phase ?(env = Sim.default_env) g ~tables ~bundles =
  let n = Graph.n g in
  let proto : (back_state, back_msg) Sim.protocol =
    {
      init =
        (fun view ->
          let v = view.Sim.node in
          { b_known = tables v; b_queue = bundles v; b_l = [] });
      step =
        (fun _view ~round:_ st ~inbox ->
          let st =
            List.fold_left
              (fun st (_, msg) -> { st with b_queue = st.b_queue @ [ msg ] })
              st inbox
          in
          let rec dispatch st =
            match st.b_queue with
            | [] -> st, []
            | msg :: rest -> begin
                match Hashtbl.find_opt st.b_known msg.route with
                | Some (-1) | None ->
                    (* We originated this chain: accept the label. *)
                    dispatch { st with b_queue = rest; b_l = msg.payload :: st.b_l }
                | Some sender -> { st with b_queue = rest }, [ sender, msg ]
              end
          in
          dispatch st);
      is_done = (fun st -> st.b_queue = []);
      msg_bits = (fun _ -> 3 * Bitsize.id_bits ~n);
      (* As in [route_phase]: an empty queue and no mail is a no-op. *)
      wake = Some Sim.never;
    }
  in
  Sim.run ~env g proto

(* ----------------------------------------------------------------------- *)
