(* Level-routing protocols shared by the randomized algorithm (Section 5,
   steps 3c and 3d) and the Khan et al. baseline: label-to-target routing
   with per-(label, target) filtering, and bundle backtracing. *)

module Graph = Dsf_graph.Graph
module Sim = Dsf_congest.Sim
module Fault = Dsf_congest.Fault
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
  let proto : (route_state, int * int) Sim.flat_protocol =
    {
      fp_init =
        (fun view ->
          let v = view.Sim.node in
          let known = Hashtbl.create 8 in
          let mine = origins v in
          List.iter (fun lw -> Hashtbl.replace known lw (-1)) mine;
          { known; unsent = mine; lhat = []; marked = [] });
      fp_step =
        (fun view ~round:_ st ~inbox ~emit ->
          let v = view.Sim.node in
          let unsent = ref st.unsent in
          for i = 0 to Sim.inbox_len inbox - 1 do
            let lw = Sim.inbox_msg inbox i in
            if not (Hashtbl.mem st.known lw) then begin
              Hashtbl.replace st.known lw (Sim.inbox_src inbox i);
              unsent := !unsent @ [ lw ]
            end
          done;
          (* Deliver-to-self entries are free; handle them all, then send
             at most one remote entry. *)
          let rec dispatch st =
            match st.unsent with
            | [] -> st
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
                      emit ~dst:nb lw;
                      { st with unsent = rest; marked = eid :: st.marked }
                end
          in
          dispatch { st with unsent = !unsent });
      fp_is_done = (fun st -> st.unsent = []);
      fp_msg_bits = (fun _ -> 2 * Bitsize.id_bits ~n);
      (* A node with nothing unsent and no mail returns its state as is
         and sends nothing, so only mail or a pending entry wakes it. *)
      fp_wake = Some Sim.never;
    }
  in
  (* The [known] tables are mutable, and a hardened run takes no recovery
     contract for them, so only crash-free plans are masked. *)
  fst (Fault.sim_run ~env g proto)

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
  let proto : (back_state, back_msg) Sim.flat_protocol =
    {
      fp_init =
        (fun view ->
          let v = view.Sim.node in
          { b_known = tables v; b_queue = bundles v; b_l = [] });
      fp_step =
        (fun _view ~round:_ st ~inbox ~emit ->
          let queue = ref st.b_queue in
          for i = 0 to Sim.inbox_len inbox - 1 do
            queue := !queue @ [ Sim.inbox_msg inbox i ]
          done;
          let rec dispatch st =
            match st.b_queue with
            | [] -> st
            | msg :: rest -> begin
                match Hashtbl.find_opt st.b_known msg.route with
                | Some (-1) | None ->
                    (* We originated this chain: accept the label. *)
                    dispatch { st with b_queue = rest; b_l = msg.payload :: st.b_l }
                | Some sender ->
                    emit ~dst:sender msg;
                    { st with b_queue = rest }
              end
          in
          dispatch { st with b_queue = !queue });
      fp_is_done = (fun st -> st.b_queue = []);
      fp_msg_bits = (fun _ -> 3 * Bitsize.id_bits ~n);
      (* As in [route_phase]: an empty queue and no mail is a no-op. *)
      fp_wake = Some Sim.never;
    }
  in
  (* The route tables are only read here (and rebuilt by [fp_init] on a
     restart), so the state is immutable; the checkpoint charges three
     words per queued message and one per accepted label. *)
  let recovery =
    {
      (Fault.immutable ()) with
      Fault.state_bits =
        (fun st -> 63 * (1 + (3 * List.length st.b_queue) + List.length st.b_l));
    }
  in
  fst (Fault.sim_run ~env ~recovery g proto)

(* ----------------------------------------------------------------------- *)
