module Graph = Dsf_graph.Graph
module Bitsize = Dsf_util.Bitsize

(* One Cole-Vishkin step: given own color and the parent's color (both
   proper, i.e. different), return 2 * i + bit_i(own) for the lowest bit
   position i where they differ. *)
let cv_step own parent =
  assert (own <> parent);
  let diff = own lxor parent in
  let rec lowest i v = if v land 1 = 1 then i else lowest (i + 1) (v lsr 1) in
  let i = lowest 0 diff in
  (2 * i) + ((own lsr i) land 1)

(* A root has no parent; it pretends its parent's color differs at bit 0. *)
let cv_root own = (2 * 0) + (own land 1)

(* 63-bit identifiers need 4 CV iterations to reach colors < 6:
   63 bits -> <126 -> <14 -> <8 -> <6.  Two extra for safety. *)
let cv_iterations = 6

(* A fresh {0,1,2} color for a shifting root, different from its old one. *)
let root_shift_color old = if old = 0 then 1 else 0

type color_state = {
  color : int;
  pre_shift : int;  (** own color before the current stage's shift-down *)
  parent_color : int;  (** parent's current color, as last heard *)
  finished : bool;
}

type color_msg = Down of int

(* Phase layout by round number r:
   r in [0, cv_iterations):   lockstep CV — parents broadcast, colors
                              shrink to {0..5};
   then three reduction stages (targets 5, 4, 3), each three rounds:
     +0  shift-broadcast:     every node sends its color down;
     +1  adopt + rebroadcast: nodes adopt their parent's color (shift-down,
                              so all siblings now share a color and every
                              node has at most two distinct neighbor
                              colors); roots pick a fresh {0,1,2} color;
                              the adopted color is sent down again;
     +2  recolor:             the target class picks the least color of
                              {0,1,2} unused by parent (just heard) and
                              children (= own pre-shift color). *)
let three_color ?(env = Sim.default_env) g ~parent =
  Array.iteri
    (fun v p ->
      if p >= 0 && Graph.find_edge g v p = None then
        invalid_arg "Coloring.three_color: parent not adjacent")
    parent;
  let n = Graph.n g in
  let children = Array.make n [] in
  Array.iteri (fun v p -> if p >= 0 then children.(p) <- v :: children.(p)) parent;
  let reduction_start = cv_iterations in
  let limit = reduction_start + 9 in
  let proto : (color_state, color_msg) Sim.flat_protocol =
    {
      fp_init =
        (fun view ->
          {
            color = view.Sim.node;
            pre_shift = view.Sim.node;
            parent_color = -1;
            finished = false;
          });
      fp_step =
        (fun view ~round st ~inbox ~emit ->
          let v = view.Sim.node in
          (* The parent's last message this round, if any. *)
          let heard_parent = ref None in
          for i = 0 to Sim.inbox_len inbox - 1 do
            if Sim.inbox_src inbox i = parent.(v) then begin
              let (Down c) = Sim.inbox_msg inbox i in
              heard_parent := Some c
            end
          done;
          let heard_parent = !heard_parent in
          let send_down color =
            List.iter (fun c -> emit ~dst:c (Down color)) children.(v)
          in
          if round < cv_iterations then begin
            let color =
              if round = 0 then st.color
              else begin
                match heard_parent with
                | Some c -> cv_step st.color c
                | None -> cv_root st.color
              end
            in
            send_down color;
            { st with color }
          end
          else if round < limit then begin
            match (round - reduction_start) mod 3 with
            | 0 ->
                (* Shift-broadcast; remember our pre-shift color. *)
                send_down st.color;
                { st with pre_shift = st.color }
            | 1 ->
                (* Adopt the parent's color; roots take a fresh one. *)
                let color =
                  match heard_parent with
                  | Some c -> c
                  | None -> root_shift_color st.color
                in
                send_down color;
                { st with color }
            | _ ->
                let stage = (round - reduction_start) / 3 in
                let target = 5 - stage in
                let parent_color =
                  match heard_parent with Some c -> c | None -> -1
                in
                let color =
                  if st.color = target then
                    List.find
                      (fun c -> c <> parent_color && c <> st.pre_shift)
                      [ 0; 1; 2 ]
                  else st.color
                in
                { st with color; parent_color }
          end
          else { st with finished = true });
      fp_is_done = (fun st -> st.finished);
      fp_msg_bits = (fun _ -> Bitsize.int_bits 8);
    }
  in
  let states, _ =
    Fault.sim_run ~env ~recovery:(Fault.immutable ()) g proto
  in
  Array.map (fun st -> st.color) states

type match_state = {
  m_color : int;
  matched_with : int;  (** -1 when unmatched *)
  accepted : (int * int) list;  (** (child, parent) edges this node confirmed *)
  m_done : bool;
}

type match_msg = Propose | Accept

(* Color classes propose to their parents in turn; an unmatched parent
   accepts its smallest proposer.  Accept confirmations are processed
   before the next class proposes, so the matching stays consistent. *)
let maximal_matching ?(env = Sim.default_env) g ~parent =
  let colors = three_color ~env g ~parent in
  let proto : (match_state, match_msg) Sim.flat_protocol =
    {
      fp_init =
        (fun view ->
          {
            m_color = colors.(view.Sim.node);
            matched_with = -1;
            accepted = [];
            m_done = false;
          });
      fp_step =
        (fun view ~round st ~inbox ~emit ->
          let v = view.Sim.node in
          (* Accept confirmations settle our earlier proposal; a node
             still unmatched after them takes its smallest proposer. *)
          let st = ref st and proposer = ref (-1) in
          for i = 0 to Sim.inbox_len inbox - 1 do
            let sender = Sim.inbox_src inbox i in
            match Sim.inbox_msg inbox i with
            | Accept ->
                if !st.matched_with = -1 then
                  st :=
                    {
                      !st with
                      matched_with = sender;
                      accepted = (v, sender) :: !st.accepted;
                    }
            | Propose ->
                if !proposer < 0 || sender < !proposer then proposer := sender
          done;
          let st =
            if !proposer >= 0 && !st.matched_with = -1 then begin
              emit ~dst:!proposer Accept;
              { !st with matched_with = !proposer }
            end
            else !st
          in
          if
            round mod 2 = 0
            && round / 2 = st.m_color
            && st.matched_with = -1
            && parent.(v) >= 0
          then emit ~dst:parent.(v) Propose;
          { st with m_done = round >= 7 });
      fp_is_done = (fun st -> st.m_done);
      fp_msg_bits = (fun _ -> 2);
    }
  in
  let states, _ =
    Fault.sim_run ~env
      ~recovery:
        {
          (Fault.immutable ()) with
          (* One word for the scalars, two per confirmed edge. *)
          state_bits = (fun st -> 63 * (1 + (2 * List.length st.accepted)));
        }
      g proto
  in
  Array.to_list states |> List.concat_map (fun st -> st.accepted)
