module Graph = Dsf_graph.Graph
module Sim = Dsf_congest.Sim
module Fault = Dsf_congest.Fault
module Bitsize = Dsf_util.Bitsize

(* ---------------------------------------------------------- mark phase *)

type mark_state = {
  pending : int list;  (** classes still to forward up *)
  seen : (int, unit) Hashtbl.t;
  senders : (int, int list) Hashtbl.t;  (** class -> children it came from *)
  up_marks : (int, unit) Hashtbl.t;  (** classes forwarded on (v, parent) *)
}

let mark_protocol g ~parent ~labels : (mark_state, int) Sim.flat_protocol =
  {
    fp_init =
      (fun view ->
        let seen = Hashtbl.create 8 in
        let mine =
          List.filter
            (fun c ->
              if Hashtbl.mem seen c then false
              else begin
                Hashtbl.add seen c ();
                true
              end)
            (labels view.Sim.node)
        in
        {
          pending = mine;
          seen;
          senders = Hashtbl.create 8;
          up_marks = Hashtbl.create 8;
        });
    fp_step =
      (fun view ~round:_ st ~inbox ~emit ->
        let v = view.Sim.node in
        let fresh = ref [] in
        for i = 0 to Sim.inbox_len inbox - 1 do
          let sender = Sim.inbox_src inbox i and c = Sim.inbox_msg inbox i in
          Hashtbl.replace st.senders c
            (sender :: Option.value ~default:[] (Hashtbl.find_opt st.senders c));
          if not (Hashtbl.mem st.seen c) then begin
            Hashtbl.add st.seen c ();
            fresh := c :: !fresh
          end
        done;
        match st.pending @ List.rev !fresh with
        | [] -> { st with pending = [] }
        | c :: rest ->
            if parent.(v) >= 0 then begin
              Hashtbl.replace st.up_marks c ();
              emit ~dst:parent.(v) c
            end;
            { st with pending = rest });
    (* A done node has nothing pending, so a step with no mail sends
       nothing and returns an equal state. *)
    fp_is_done = (fun st -> st.pending = []);
    fp_msg_bits = (fun _ -> Bitsize.id_bits ~n:(Graph.n g));
  }

(* -------------------------------------------------------- unmark phase *)

type unmark_state = {
  u_senders : (int, int list) Hashtbl.t;
  u_own : (int, unit) Hashtbl.t;
  u_marks : (int, unit) Hashtbl.t;  (** surviving classes on (v, parent) *)
  queues : (int, int Queue.t) Hashtbl.t;  (** per-child pending unmarks *)
}

let unmark_protocol g ~parent ~labels ~mark_states :
    (unmark_state, int) Sim.flat_protocol =
  (* A node peels class c off toward its single witness subtree when no
     second witness exists at or above it. *)
  let decide st c =
    match Option.value ~default:[] (Hashtbl.find_opt st.u_senders c) with
    | [ only ] when not (Hashtbl.mem st.u_own c) -> Some only
    | _ -> None
  in
  {
    fp_init =
      (fun view ->
        let v = view.Sim.node in
        let (ms : mark_state) = mark_states.(v) in
        let u_own = Hashtbl.create 8 in
        List.iter (fun c -> Hashtbl.replace u_own c ()) (labels v);
        let st =
          {
            u_senders = ms.senders;
            u_own;
            u_marks = Hashtbl.copy ms.up_marks;
            queues = Hashtbl.create 4;
          }
        in
        (* Roots initiate the peeling. *)
        if parent.(v) < 0 then
          Hashtbl.iter
            (fun c _ ->
              match decide st c with
              | Some child ->
                  let q =
                    match Hashtbl.find_opt st.queues child with
                    | Some q -> q
                    | None ->
                        let q = Queue.create () in
                        Hashtbl.replace st.queues child q;
                        q
                  in
                  Queue.add c q
              | None -> ())
            st.u_senders;
        st);
    fp_step =
      (fun _view ~round:_ st ~inbox ~emit ->
        (* An incoming unmark removes the class from our up-edge and may
           continue down our single witness branch. *)
        for i = 0 to Sim.inbox_len inbox - 1 do
          let c = Sim.inbox_msg inbox i in
          Hashtbl.remove st.u_marks c;
          match decide st c with
          | Some child ->
              let q =
                match Hashtbl.find_opt st.queues child with
                | Some q -> q
                | None ->
                    let q = Queue.create () in
                    Hashtbl.replace st.queues child q;
                    q
              in
              Queue.add c q
          | None -> ()
        done;
        (* One unmark per child queue, collected by prepending in table
           order, so the sends go out in reverse table order. *)
        let outbox =
          Hashtbl.fold
            (fun child q acc ->
              match Queue.take_opt q with
              | Some c -> (child, c) :: acc
              | None -> acc)
            st.queues []
        in
        List.iter (fun (child, c) -> emit ~dst:child c) outbox;
        st);
    (* As in the mark phase: with every child queue empty and no mail,
       a step sends nothing and changes nothing. *)
    fp_is_done =
      (fun st ->
        Hashtbl.fold (fun _ q acc -> acc && Queue.is_empty q) st.queues true);
    fp_msg_bits = (fun _ -> Bitsize.id_bits ~n:(Graph.n g));
  }

let run ?(env = Sim.default_env) g ~parent ~labels =
  Array.iteri
    (fun v p ->
      if p >= 0 && Graph.find_edge g v p = None then
        invalid_arg "F6_protocol.run: parent not adjacent")
    parent;
  (* Both phases keep mutable tables and take no recovery contract, so a
     hardened run masks crash-free plans only. *)
  let mark_states, _ = Fault.sim_run ~env g (mark_protocol g ~parent ~labels) in
  let unmark_states, _ =
    Fault.sim_run ~env g (unmark_protocol g ~parent ~labels ~mark_states)
  in
  let kept = Array.make (Graph.m g) false in
  Array.iteri
    (fun v (st : unmark_state) ->
      if parent.(v) >= 0 && Hashtbl.length st.u_marks > 0 then begin
        match Graph.find_edge g v parent.(v) with
        | Some eid -> kept.(eid) <- true
        | None -> ()
      end)
    unmark_states;
  kept
