(* The traced mirror: the driver's plain VPP loops (every fault rate 0, no
   adversary, no trust layer) rebuilt from the public calls of each layer,
   with a span around every call.

   The driver's loops are closed, so this is the only way to split a run's
   time by layer without instrumenting the program. The mirror is only
   valid while it makes the same decisions as the driver: [Vppbench]
   checks that, for every traced seed, rounds and automated and human
   prompt counts equal [Cosynth.Driver.run_*] on the same seed. *)

open Policy
module Humanizer = Cosynth.Humanizer
module Modularizer = Cosynth.Modularizer

type counts = { rounds : int; auto : int; human : int; converged : bool }

let counts_of_transcript (t : Cosynth.Driver.transcript) =
  {
    rounds = t.Cosynth.Driver.rounds;
    auto = t.Cosynth.Driver.auto_prompts;
    human = t.Cosynth.Driver.human_prompts;
    converged = t.Cosynth.Driver.converged;
  }

(* Loop bookkeeping, as in the driver's [loop_state] on the plain path. *)
type st = {
  mutable auto : int;
  mutable human : int;
  mutable rounds : int;
  mutable stalls : (string * int) list;
  max_prompts : int;
  stall_threshold : int;
}

let new_st ~max_prompts ~stall_threshold =
  { auto = 0; human = 0; rounds = 0; stalls = []; max_prompts; stall_threshold }

let budget_left st = st.auto + st.human < st.max_prompts
let first_error diags = List.find_opt Netcore.Diag.is_error diags

(* ------------------------------------------------------------------ *)
(* Traced layer calls                                                  *)
(* ------------------------------------------------------------------ *)

let chat_start ~seed ?iips ?regression_rate dialect ~correct =
  Trace.span "llmsim.chat" (fun () ->
      Llmsim.Chat.start ~seed ?iips ?regression_rate dialect ~correct)

let draft chat = Trace.span "llmsim.chat" (fun () -> Llmsim.Chat.draft chat)

(* A prompt "fixes" when some fault live before it is gone after it. *)
let respond chat prompt =
  let before = Llmsim.Chat.live_faults chat in
  Trace.span "llmsim.chat" (fun () -> Llmsim.Chat.respond chat prompt);
  let after = Llmsim.Chat.live_faults chat in
  Trace.count "llmsim.chat.prompts" 1.;
  if List.exists (fun f -> not (List.mem f after)) before then
    Trace.count "llmsim.chat.fixes" 1.

let parse_layer = function
  | Batfish.Parse_check.Cisco_ios -> "batfish.parse_check.cisco"
  | Batfish.Parse_check.Junos -> "batfish.parse_check.junos"

(* The driver's syntax stage: the memoized parse check. A memo miss runs
   the parser as a child span. *)
let parse_check dialect text =
  let layer = parse_layer dialect in
  let parse () =
    Ok
      (Trace.span layer (fun () ->
           Trace.count (layer ^ ".bytes") (float_of_int (String.length text));
           Batfish.Parse_check.check dialect text))
  in
  match Trace.span "exec.memo" (fun () -> Exec.Memo.check_result dialect text ~parse) with
  | Ok r -> r
  | Error () -> assert false

let cisco_parse text = Trace.span "cisco.parser" (fun () -> Cisco.Parser.parse text)
let humanize f = Trace.span "core.humanizer" f

(* Campion's own decomposition, replayed on the same inputs as shadow
   calls: normalisation of the original, then one symbolic diff per
   attached route-map pair and per attached ACL pair. *)
let campion_shadow ~original ~translation =
  Trace.shadow "campion.shadow" (fun () ->
      let original =
        Trace.span "juniper.translate" (fun () -> Juniper.Translate.of_cisco_ir original)
      in
      let env_a = Eval.env_of_config original and env_b = Eval.env_of_config translation in
      let policy_of c name =
        match Config_ir.find_route_map c name with
        | Some m -> m
        | None -> Route_map.permit_all name
      in
      let maps a b =
        match (a, b) with
        | Some p, Some p' ->
            ignore
              (Trace.span "symbolic.policy_diff" (fun () ->
                   Symbolic.Policy_diff.compare_maps ~env_a ~env_b (policy_of original p)
                     (policy_of translation p')))
        | _ -> ()
      in
      (match (original.Config_ir.bgp, translation.Config_ir.bgp) with
      | Some bo, Some bt ->
          List.iter
            (fun (n : Config_ir.neighbor) ->
              match Config_ir.find_neighbor bt n.Config_ir.addr with
              | None -> ()
              | Some n' ->
                  maps n.Config_ir.import_policy n'.Config_ir.import_policy;
                  maps n.Config_ir.export_policy n'.Config_ir.export_policy)
            bo.Config_ir.neighbors
      | _ -> ());
      let acl_of c name =
        match Config_ir.find_acl c name with Some a -> a | None -> Acl.make name []
      in
      let acls a b =
        match (a, b) with
        | Some n, Some n' ->
            ignore
              (Trace.span "symbolic.acl_diff" (fun () ->
                   Symbolic.Acl_diff.compare_acls (acl_of original n) (acl_of translation n')))
        | _ -> ()
      in
      List.iter
        (fun (i : Config_ir.interface) ->
          match Config_ir.find_interface translation i.Config_ir.iface with
          | None -> ()
          | Some i' ->
              acls i.Config_ir.acl_in i'.Config_ir.acl_in;
              acls i.Config_ir.acl_out i'.Config_ir.acl_out)
        original.Config_ir.interfaces)

let campion ~original ~translation =
  let findings =
    Trace.span "campion.differ" (fun () -> Campion.Differ.compare ~original ~translation)
  in
  Trace.count "campion.differ.findings" (float_of_int (List.length findings));
  campion_shadow ~original ~translation;
  findings

let topology topo router ir =
  Trace.span "topoverify.verifier" (fun () -> Topoverify.Verifier.check topo ~router ir)

let route_policies ir specs =
  Trace.count "batfish.search_route_policies.specs" (float_of_int (List.length specs));
  Trace.span "batfish.search_route_policies" (fun () ->
      Batfish.Search_route_policies.check_all ir specs)

(* The driver's [send] on the plain path: an automated prompt, escalated
   to a human prompt after [stall_threshold] attempts at the same text;
   [false] when a stalled finding has no actionable reference. *)
let send st chat (p : Humanizer.prompt) =
  let attempts = Option.value ~default:0 (List.assoc_opt p.Humanizer.text st.stalls) in
  if attempts >= st.stall_threshold then
    if p.Humanizer.refs = [] then false
    else begin
      respond chat
        {
          Llmsim.Chat.text = "[human] " ^ p.Humanizer.text;
          refs = p.Humanizer.refs;
          strength = Llmsim.Chat.Human;
        };
      st.human <- st.human + 1;
      st.stalls <- List.remove_assoc p.Humanizer.text st.stalls;
      true
    end
  else begin
    respond chat
      { Llmsim.Chat.text = p.Humanizer.text; refs = p.Humanizer.refs; strength = Llmsim.Chat.Auto };
    st.auto <- st.auto + 1;
    st.stalls <- (p.Humanizer.text, attempts + 1) :: List.remove_assoc p.Humanizer.text st.stalls;
    true
  end

(* ------------------------------------------------------------------ *)
(* Use case 1: translation                                             *)
(* ------------------------------------------------------------------ *)

let translation ~seed ~cisco_text =
  let cisco_ir, _ = cisco_parse cisco_text in
  let correct = Juniper.Translate.of_cisco_ir cisco_ir in
  let chat = chat_start ~seed ~regression_rate:0.2 Llmsim.Fault.Junos_cfg ~correct in
  let st = new_st ~max_prompts:200 ~stall_threshold:4 in
  st.human <- 1 (* the initial task prompt *);
  let rec loop () =
    st.rounds <- st.rounds + 1;
    if not (budget_left st) then false
    else
      let ir, diags = parse_check Batfish.Parse_check.Junos (draft chat) in
      match first_error diags with
      | Some d -> send st chat (humanize (fun () -> Humanizer.of_diag d)) && loop ()
      | None -> (
          match campion ~original:cisco_ir ~translation:ir with
          | [] -> true
          | f :: _ -> send st chat (humanize (fun () -> Humanizer.of_campion f)) && loop ())
  in
  let converged = loop () in
  let final_text = draft chat in
  let verified =
    converged
    &&
    let ir, diags = parse_check Batfish.Parse_check.Junos final_text in
    first_error diags = None && campion ~original:cisco_ir ~translation:ir = []
  in
  ({ rounds = st.rounds; auto = st.auto; human = st.human; converged }, verified)

(* ------------------------------------------------------------------ *)
(* Use case 2: no-transit on a star                                    *)
(* ------------------------------------------------------------------ *)

let no_transit ~seed ~routers =
  let star = Netcore.Star.make ~routers in
  let tasks = Trace.span "core.modularizer" (fun () -> Modularizer.plan star) in
  let iips = Cosynth.Iip.ids Cosynth.Iip.defaults in
  let st = new_st ~max_prompts:400 ~stall_threshold:2 in
  st.human <- 1;
  let local_loop st (task : Modularizer.router_task) chat =
    let rec loop () =
      st.rounds <- st.rounds + 1;
      if not (budget_left st) then (draft chat, false)
      else
        let d = draft chat in
        let again p = if send st chat (humanize p) then loop () else (d, false) in
        let ir, diags = parse_check Batfish.Parse_check.Cisco_ios d in
        match first_error diags with
        | Some diag -> again (fun () -> Humanizer.of_diag diag)
        | None -> (
            match topology star.Netcore.Star.topology task.Modularizer.router ir with
            | f :: _ -> again (fun () -> Humanizer.of_topology f)
            | [] -> (
                let violations =
                  List.filter_map
                    (function
                      | _, Batfish.Search_route_policies.Violated v -> Some v
                      | _, (Batfish.Search_route_policies.Holds | Policy_missing) -> None)
                    (route_policies ir task.Modularizer.specs)
                in
                match violations with
                | [] -> (d, true)
                | v :: _ -> again (fun () -> Humanizer.of_violation v)))
    in
    loop ()
  in
  (* Each router gets an even share of what the initial prompt left. *)
  let share = if tasks = [] then 0 else (st.max_prompts - 1) / List.length tasks in
  let results =
    List.mapi
      (fun idx (task : Modularizer.router_task) ->
        let sub = new_st ~max_prompts:share ~stall_threshold:2 in
        let chat =
          chat_start ~seed:(seed + (idx * 7919)) ~iips Llmsim.Fault.Cisco_cfg
            ~correct:task.Modularizer.correct
        in
        if budget_left sub then sub.auto <- sub.auto + 1 (* the modularizer's prompt *);
        let final_draft, ok = local_loop sub task chat in
        let ir, _ = cisco_parse final_draft in
        (task, chat, ir, ok, sub))
      tasks
  in
  List.iter
    (fun (_, _, _, _, sub) ->
      st.auto <- st.auto + sub.auto;
      st.human <- st.human + sub.human;
      st.rounds <- st.rounds + sub.rounds;
      st.stalls <- sub.stalls @ st.stalls)
    results;
  let results = List.map (fun (task, chat, ir, ok, _) -> (task, chat, ir, ok)) results in
  let configs_of rs =
    List.map (fun ((t : Modularizer.router_task), _, ir, _) -> (t.Modularizer.router, ir)) rs
  in
  let hub = star.Netcore.Star.hub in
  let is_hub ((t : Modularizer.router_task), _, _, _) = t.Modularizer.router = hub in
  (* The whole-network check. [Modularizer.no_transit_holds] composes the
     network, runs [Bgp_sim.run] and queries reachability; the simulation
     dominates, so the span carries its name. *)
  let rec global_phase results rounds =
    let ok, violations =
      Trace.span "batfish.bgp_sim" (fun () ->
          Modularizer.no_transit_holds star (configs_of results))
    in
    if ok || rounds = 0 || not (budget_left st) then (results, ok)
    else
      let task, chat, _, _ = List.find is_hub results in
      if not (send st chat (humanize (fun () -> Humanizer.of_global_violations ~hub violations)))
      then (results, ok)
      else
        let d, local_ok = local_loop st task chat in
        let ir, _ = cisco_parse d in
        global_phase
          (List.map (fun r -> if is_hub r then (task, chat, ir, local_ok) else r) results)
          (rounds - 1)
  in
  let all_ok = List.for_all (fun (_, _, _, ok) -> ok) results in
  let results, global_ok = if all_ok then global_phase results 12 else (results, false) in
  let configs = configs_of results in
  Trace.shadow "core.lightyear" (fun () ->
      ignore (Cosynth.Lightyear.prove_no_transit star configs));
  let converged = List.for_all (fun (_, _, _, ok) -> ok) results && global_ok in
  { rounds = st.rounds; auto = st.auto; human = st.human; converged }
