(* Tests for the simulated GPT-4: RNG determinism, fault opportunities and
   rendering, and the conversation dynamics. *)

open Netcore
open Policy

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Llmsim.Rng.make 7 and b = Llmsim.Rng.make 7 in
  let seq r = List.init 20 (fun _ -> Llmsim.Rng.int r 1000) in
  check bool_t "same seed same sequence" true (seq a = seq b);
  let c = Llmsim.Rng.make 8 in
  check bool_t "different seed different sequence" false (seq (Llmsim.Rng.make 7) = seq c)

let test_rng_float_range () =
  let r = Llmsim.Rng.make 1 in
  for _ = 1 to 1000 do
    let f = Llmsim.Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_choice () =
  let r = Llmsim.Rng.make 2 in
  check bool_t "empty" true (Llmsim.Rng.choice r [] = None);
  for _ = 1 to 100 do
    match Llmsim.Rng.choice r [ 1; 2; 3 ] with
    | Some x when x >= 1 && x <= 3 -> ()
    | _ -> Alcotest.fail "choice outside list"
  done

let test_rng_split_independent () =
  let r = Llmsim.Rng.make 3 in
  let a, b = Llmsim.Rng.split r in
  let seq r = List.init 10 (fun _ -> Llmsim.Rng.int r 1000) in
  check bool_t "split streams differ" false (seq a = seq b)

(* ------------------------------------------------------------------ *)
(* Fault opportunities and rendering                                   *)
(* ------------------------------------------------------------------ *)

let border_ir = fst (Cisco.Parser.parse Cisco.Samples.border_router)
let correct_junos = Juniper.Translate.of_cisco_ir border_ir

let star = Star.make ~routers:4
let hub_task = List.hd (Cosynth.Modularizer.plan star)
let hub_correct = hub_task.Cosynth.Modularizer.correct

let has_class cls faults =
  List.exists
    (fun (f : Llmsim.Fault.t) -> Llmsim.Error_class.equal f.Llmsim.Fault.class_ cls)
    faults

let test_junos_opportunities () =
  let ops = Llmsim.Fault.opportunities Llmsim.Fault.Junos_cfg correct_junos in
  List.iter
    (fun cls ->
      check bool_t (Llmsim.Error_class.to_string cls) true (has_class cls ops))
    [
      Llmsim.Error_class.Missing_local_as;
      Llmsim.Error_class.Missing_import_policy;
      Llmsim.Error_class.Missing_export_policy;
      Llmsim.Error_class.Ospf_cost_wrong;
      Llmsim.Error_class.Ospf_passive_wrong;
      Llmsim.Error_class.Wrong_med;
      Llmsim.Error_class.Prefix_range_dropped;
      Llmsim.Error_class.Redistribution_unscoped;
    ];
  (* No synthesis-only classes in the translation artifact. *)
  check bool_t "no cli keywords" false (has_class Llmsim.Error_class.Cli_keywords ops)

let test_cisco_opportunities () =
  let ops = Llmsim.Fault.opportunities Llmsim.Fault.Cisco_cfg hub_correct in
  List.iter
    (fun cls ->
      check bool_t (Llmsim.Error_class.to_string cls) true (has_class cls ops))
    [
      Llmsim.Error_class.Cli_keywords;
      Llmsim.Error_class.Match_community_literal;
      Llmsim.Error_class.Community_not_additive;
      Llmsim.Error_class.And_or_confusion;
      Llmsim.Error_class.Wrong_local_as;
      Llmsim.Error_class.Missing_neighbor_decl;
      Llmsim.Error_class.Missing_network_decl;
    ]

let render_with cls target =
  Llmsim.Fault.render Llmsim.Fault.Junos_cfg correct_junos [ Llmsim.Fault.make cls target ]

let test_render_no_faults_is_clean () =
  let text = Llmsim.Fault.render Llmsim.Fault.Junos_cfg correct_junos [] in
  check bool_t "clean" true (Batfish.Parse_check.syntax_ok Batfish.Parse_check.Junos text)

let test_render_missing_local_as () =
  let text = render_with Llmsim.Error_class.Missing_local_as Llmsim.Fault.Whole_config in
  check bool_t "no autonomous-system line" false (contains ~sub:"autonomous-system" text);
  check bool_t "no local-as line" false (contains ~sub:"local-as" text);
  check bool_t "syntax error detected" false
    (Batfish.Parse_check.syntax_ok Batfish.Parse_check.Junos text)

let test_render_bad_prefix_list () =
  let text =
    render_with Llmsim.Error_class.Bad_prefix_list_syntax
      (Llmsim.Fault.Named_list "our-networks")
  in
  check bool_t "contains the /24-32 shorthand" true (contains ~sub:"1.2.3.0/24-32" text);
  let _, diags = Batfish.Parse_check.check Batfish.Parse_check.Junos text in
  check bool_t "targeted error" true
    (List.exists
       (fun d -> contains ~sub:"not valid Juniper syntax" (Diag.to_string d))
       diags)

let test_render_cli_keywords () =
  let text =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub_correct
      [ Llmsim.Fault.make Llmsim.Error_class.Cli_keywords Llmsim.Fault.Whole_config ]
  in
  check bool_t "has configure terminal" true (contains ~sub:"configure terminal" text);
  let _, diags = Batfish.Parse_check.check Batfish.Parse_check.Cisco_ios text in
  check bool_t "flagged" true
    (List.exists (fun d -> contains ~sub:"CLI command" (Diag.to_string d)) diags)

let test_render_neighbor_outside_bgp () =
  let spoke_addr = Ipv4.of_string_exn "1.0.0.2" in
  let text =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub_correct
      [
        Llmsim.Fault.make Llmsim.Error_class.Neighbor_outside_bgp
          (Llmsim.Fault.Neighbor spoke_addr);
      ]
  in
  let _, diags = Batfish.Parse_check.check Batfish.Parse_check.Cisco_ios text in
  check bool_t "flagged misplaced" true
    (List.exists
       (fun d -> contains ~sub:"only valid inside a 'router bgp'" (Diag.to_string d))
       diags)

let test_render_and_or_confusion () =
  let map = Cosynth.Modularizer.egress_map_name "R2" in
  let text =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub_correct
      [ Llmsim.Fault.make Llmsim.Error_class.And_or_confusion (Llmsim.Fault.Policy map) ]
  in
  let ir, diags = Cisco.Parser.parse text in
  check int_t "still parses" 0 (List.length diags);
  let m = Option.get (Config_ir.find_route_map ir map) in
  (* All community matches merged into a single deny stanza. *)
  let denies =
    List.filter
      (fun (e : Route_map.entry) -> e.Route_map.action = Action.Deny)
      m.Route_map.entries
  in
  check int_t "one deny stanza" 1 (List.length denies);
  check int_t "two matches in it (AND)" 2 (List.length (List.hd denies).Route_map.matches)

let test_render_match_community_literal () =
  let map = Cosynth.Modularizer.egress_map_name "R2" in
  let text =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub_correct
      [
        Llmsim.Fault.make Llmsim.Error_class.Match_community_literal
          (Llmsim.Fault.Policy_entry (map, 10));
      ]
  in
  let _, diags = Batfish.Parse_check.check Batfish.Parse_check.Cisco_ios text in
  check bool_t "literal flagged" true
    (List.exists
       (fun d -> contains ~sub:"'match community" (Diag.to_string d) && Diag.is_error d)
       diags)

let test_render_ir_fault_changes_semantics () =
  let map_name = Cosynth.Modularizer.ingress_map_name "R2" in
  let text =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub_correct
      [
        Llmsim.Fault.make Llmsim.Error_class.Community_not_additive
          (Llmsim.Fault.Policy_entry (map_name, 10));
      ]
  in
  let ir, _ = Cisco.Parser.parse text in
  let m = Option.get (Config_ir.find_route_map ir map_name) in
  match (List.hd m.Route_map.entries).Route_map.sets with
  | [ Route_map.Set_community { additive; _ } ] -> check bool_t "not additive" false additive
  | _ -> Alcotest.fail "expected one set community"

let hub_of routers =
  let star = Star.make ~routers in
  (List.find
     (fun (t : Cosynth.Modularizer.router_task) ->
       t.Cosynth.Modularizer.router = star.Star.hub)
     (Cosynth.Modularizer.plan star))
    .Cosynth.Modularizer.correct

(* In a 25-router hub, FILTER_COMM_OUT_R2 is a prefix of FILTER_COMM_OUT_R20.
   Once the AND/OR confusion has merged R2's denies, R2 has no stanza 30 left,
   so a literal aimed at it must land nowhere — not under R20's stanza 30,
   which a substring match of the header took for it. *)
let test_render_literal_whole_tokens () =
  let hub = hub_of 25 in
  let map = Cosynth.Modularizer.egress_map_name "R2" in
  let and_or = Llmsim.Fault.make Llmsim.Error_class.And_or_confusion (Llmsim.Fault.Policy map) in
  let literal =
    Llmsim.Fault.make Llmsim.Error_class.Match_community_literal
      (Llmsim.Fault.Policy_entry (map, 30))
  in
  let render = Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub in
  let ir, diags = Cisco.Parser.parse (render [ and_or; literal ]) in
  check int_t "no literal anywhere" 0 (List.length diags);
  check bool_t "R20 untouched" true
    (Config_ir.find_route_map ir (Cosynth.Modularizer.egress_map_name "R20")
    = Config_ir.find_route_map hub (Cosynth.Modularizer.egress_map_name "R20"));
  check Alcotest.string "same text as the AND/OR confusion alone" (render [ and_or ])
    (render [ and_or; literal ])

(* The text faults as they were written before they became one-pass: split
   the text into lines, filter and re-join. Only [apply_match_community_literal]
   behaves differently now, and only where its substring header match took
   another map's stanza (see [test_render_literal_whole_tokens]). *)
module Line_list_faults = struct
  let lines s = String.split_on_char '\n' s
  let unlines l = String.concat "\n" l

  let apply_missing_local_as text =
    unlines
      (List.filter
         (fun l -> not (contains ~sub:"autonomous-system" l || contains ~sub:"local-as" l))
         (lines text))

  let apply_bad_prefix_list (correct : Config_ir.t) list_name text =
    match Config_ir.find_prefix_list correct list_name with
    | None | Some { Prefix_list.entries = []; _ } -> text
    | Some { Prefix_list.entries = e :: _; _ } ->
        let base_str = Prefix.to_string (Prefix_range.base e.Prefix_list.range) in
        let marker = "route-filter " ^ base_str in
        let replaced = ref false in
        let keep l =
          if contains ~sub:marker l then
            if !replaced then None
            else begin
              replaced := true;
              let indent =
                let rec count i =
                  if i < String.length l && l.[i] = ' ' then count (i + 1) else i
                in
                String.make (count 0) ' '
              in
              Some (indent ^ "prefix-list " ^ list_name ^ ";")
            end
          else Some l
        in
        let body = List.filter_map keep (lines text) in
        unlines body
        ^ Printf.sprintf "policy-options {\n    prefix-list %s {\n        %s-32;\n    }\n}\n"
            list_name base_str

  let apply_neighbor_outside_bgp addr text =
    let addr_str = Ipv4.to_string addr in
    let is_export_attachment l =
      contains ~sub:("neighbor " ^ addr_str ^ " route-map") l && contains ~sub:" out" l
    in
    match List.filter is_export_attachment (lines text) with
    | [] -> text
    | line :: _ ->
        let rest = List.filter (fun l -> not (is_export_attachment l)) (lines text) in
        unlines rest ^ String.trim line ^ "\n"

  let is_header l = String.length l > 0 && l.[0] <> ' '

  (* The old header test: map name and seq as substrings. *)
  let substring_header map_name seq l =
    contains ~sub:(Printf.sprintf "route-map %s" map_name) l
    && contains ~sub:(Printf.sprintf " %d" seq) l
    && is_header l

  let apply_match_community_literal (correct : Config_ir.t) map_name seq text =
    let literal_of list_name =
      match Config_ir.find_community_list correct list_name with
      | Some { Community_list.entries = { Community_list.communities = c :: _; _ } :: _; _ }
        ->
          Community.to_string c
      | _ -> "100:1"
    in
    let rec go acc in_stanza done_ = function
      | [] -> List.rev acc
      | l :: rest ->
          let in_stanza = if is_header l then substring_header map_name seq l else in_stanza in
          if (not done_) && in_stanza && contains ~sub:"match community " l then
            match String.split_on_char ' ' (String.trim l) with
            | [ "match"; "community"; name ] ->
                go ((" match community " ^ literal_of name) :: acc) in_stanza true rest
            | _ -> go (l :: acc) in_stanza done_ rest
          else go (l :: acc) in_stanza done_ rest
    in
    unlines (go [] false false (lines text))

  (* Whether the old header test accepts a header of another stanza. *)
  let mis_targets map_name seq text =
    List.exists
      (fun l ->
        substring_header map_name seq l
        &&
        match String.split_on_char ' ' l with
        | [ "route-map"; name; _; s ] -> name <> map_name || s <> string_of_int seq
        | _ -> true)
      (lines text)

  let apply correct text (f : Llmsim.Fault.t) =
    match (f.Llmsim.Fault.class_, f.Llmsim.Fault.target) with
    | Llmsim.Error_class.Missing_local_as, _ -> apply_missing_local_as text
    | Llmsim.Error_class.Bad_prefix_list_syntax, Llmsim.Fault.Named_list n ->
        apply_bad_prefix_list correct n text
    | Llmsim.Error_class.Cli_keywords, _ -> "configure terminal\n" ^ text ^ "end\nwrite memory\n"
    | Llmsim.Error_class.Neighbor_outside_bgp, Llmsim.Fault.Neighbor a ->
        apply_neighbor_outside_bgp a text
    | Llmsim.Error_class.Match_community_literal, Llmsim.Fault.Policy_entry (m, s) ->
        apply_match_community_literal correct m s text
    | _ -> text

  let is_text_fault (f : Llmsim.Fault.t) =
    List.mem f.Llmsim.Fault.class_
      Llmsim.Error_class.
        [
          Missing_local_as;
          Bad_prefix_list_syntax;
          Cli_keywords;
          Neighbor_outside_bgp;
          Match_community_literal;
        ]

  (* [Fault.render] with the text faults applied by the code above. *)
  let render dialect correct faults =
    let text_faults = List.filter is_text_fault faults in
    List.fold_left (apply correct)
      (Llmsim.Fault.render dialect correct (List.filter (fun f -> not (is_text_fault f)) faults))
      text_faults
end

(* Up to 12 distinct faults drawn from [ops] in a seeded random order. *)
let random_faults rng ops =
  List.map (fun f -> (Random.State.bits rng, f)) ops
  |> List.sort compare
  |> List.filteri (fun i _ -> i <= Random.State.int rng 12)
  |> List.map snd

(* Cached rendering equals uncached rendering, and the one-pass text faults
   equal the line-list ones, on every router the modularizer plans for stars
   of 2-16, 30 and 60 routers and on the border router in Cisco, and on the
   Junos translation of every Cisco sample and of every router planned for
   stars of 2-7 and 30 routers. Each oracle keeps one cache across all of
   its fault sets, as a chat does across its drafts. *)
let test_render_differential () =
  let planned sizes =
    List.concat_map
      (fun routers ->
        List.map
          (fun (t : Cosynth.Modularizer.router_task) -> t.Cosynth.Modularizer.correct)
          (Cosynth.Modularizer.plan (Star.make ~routers)))
      sizes
  in
  let junos ir = Juniper.Translate.of_cisco_ir ir in
  let oracles =
    List.map
      (fun ir -> (Llmsim.Fault.Cisco_cfg, ir, []))
      (planned (List.init 15 (fun i -> i + 2) @ [ 30; 60 ]))
    @ [
        (Llmsim.Fault.Cisco_cfg, border_ir, []);
        ( Llmsim.Fault.Junos_cfg,
          correct_junos,
          [
            Llmsim.Fault.make Llmsim.Error_class.Bad_prefix_list_syntax
              (Llmsim.Fault.Named_list "our-networks");
          ] );
      ]
    @ List.map
        (fun ir -> (Llmsim.Fault.Junos_cfg, junos ir, []))
        (List.map
           (fun text -> fst (Cisco.Parser.parse text))
           [ Cisco.Samples.minimal; Cisco.Samples.edge_router ]
        @ planned (List.init 6 (fun i -> i + 2) @ [ 30 ]))
  in
  (* At n >= 21 the hubs also get the fault pair that the line-list code
     mis-targets, so the exception below is exercised, not just allowed. *)
  let mis_targeted_pair =
    let map = Cosynth.Modularizer.egress_map_name "R2" in
    [
      Llmsim.Fault.make Llmsim.Error_class.And_or_confusion (Llmsim.Fault.Policy map);
      Llmsim.Fault.make Llmsim.Error_class.Match_community_literal
        (Llmsim.Fault.Policy_entry (map, 30));
    ]
  in
  let mis_targeted = ref 0 in
  List.iteri
    (fun i (dialect, correct, extra) ->
      let rng = Random.State.make [| i |] in
      let ops = Llmsim.Fault.opportunities dialect correct @ extra in
      let fault_sets =
        List.init 12 (fun _ -> random_faults rng ops)
        @
        if List.for_all (fun f -> List.mem f ops) mis_targeted_pair then [ mis_targeted_pair ]
        else []
      in
      let cache = Llmsim.Fault.create_cache dialect in
      List.iter
        (fun faults ->
          let described = String.concat ", " (List.map Llmsim.Fault.to_string faults) in
          let uncached = Llmsim.Fault.render dialect correct faults in
          if Llmsim.Fault.render ~cache dialect correct faults <> uncached then
            Alcotest.failf "cached render differs on oracle %d with %s" i described;
          if Line_list_faults.render dialect correct faults <> uncached then begin
            (* The one allowed difference: a literal whose stanza header the
               old substring match found in another map. *)
            let ir_text =
              Llmsim.Fault.render dialect correct
                (List.filter (fun f -> not (Line_list_faults.is_text_fault f)) faults)
            in
            if
              List.exists
                (fun (f : Llmsim.Fault.t) ->
                  match (f.Llmsim.Fault.class_, f.Llmsim.Fault.target) with
                  | Llmsim.Error_class.Match_community_literal, Llmsim.Fault.Policy_entry (m, s)
                    ->
                      Line_list_faults.mis_targets m s ir_text
                  | _ -> false)
                faults
            then incr mis_targeted
            else
              Alcotest.failf "text faults differ from the line-list code on oracle %d with %s"
                i described
          end)
        fault_sets)
    oracles;
  check int_t "mis-targeted pairs (hubs at 30 and 60)" 2 !mis_targeted

(* ------------------------------------------------------------------ *)
(* Chat dynamics                                                       *)
(* ------------------------------------------------------------------ *)

let test_chat_deterministic () =
  let drafts seed =
    let chat = Llmsim.Chat.start ~seed Llmsim.Fault.Junos_cfg ~correct:correct_junos in
    Llmsim.Chat.draft chat
  in
  check bool_t "same seed same draft" true (drafts 5 = drafts 5)

let test_chat_iip_suppression () =
  let with_iip =
    Llmsim.Chat.start ~seed:5
      ~iips:[ "cfg-files-only"; "community-list-matching"; "additive-community" ]
      Llmsim.Fault.Cisco_cfg ~correct:hub_correct
  in
  check bool_t "no suppressed classes live" true
    (List.for_all
       (fun (f : Llmsim.Fault.t) ->
         match f.Llmsim.Fault.class_ with
         | Llmsim.Error_class.Cli_keywords | Llmsim.Error_class.Match_community_literal
         | Llmsim.Error_class.Community_not_additive ->
             false
         | _ -> true)
       (Llmsim.Chat.live_faults with_iip))

let test_chat_forced_faults_fixable () =
  let f = Llmsim.Fault.make Llmsim.Error_class.Missing_local_as Llmsim.Fault.Whole_config in
  let chat =
    Llmsim.Chat.start ~seed:5 ~force_faults:[ f ] ~suppress_random:true
      ~regression_rate:0.0 ~reintroduction_rate:0.0 Llmsim.Fault.Junos_cfg
      ~correct:correct_junos
  in
  check int_t "one live fault" 1 (List.length (Llmsim.Chat.live_faults chat));
  (* A human prompt always fixes (human_fix = 1.0). *)
  Llmsim.Chat.respond chat (Llmsim.Chat.human_prompt f);
  check int_t "fixed" 0 (List.length (Llmsim.Chat.live_faults chat));
  check int_t "recorded as fixed" 1 (List.length (Llmsim.Chat.fixed_faults chat))

let test_chat_auto_never_fixes_redistribution () =
  let f =
    Llmsim.Fault.make Llmsim.Error_class.Redistribution_unscoped Llmsim.Fault.Whole_config
  in
  let chat =
    Llmsim.Chat.start ~seed:5 ~force_faults:[ f ] ~suppress_random:true
      ~regression_rate:0.0 ~reintroduction_rate:0.0 Llmsim.Fault.Junos_cfg
      ~correct:correct_junos
  in
  for _ = 1 to 20 do
    Llmsim.Chat.respond chat (Llmsim.Chat.auto_prompt f)
  done;
  check int_t "still live after 20 auto prompts" 1
    (List.length (Llmsim.Chat.live_faults chat));
  Llmsim.Chat.respond chat (Llmsim.Chat.human_prompt f);
  check int_t "human fixes" 0 (List.length (Llmsim.Chat.live_faults chat))

let test_chat_prefix_range_morphs () =
  let f =
    Llmsim.Fault.make Llmsim.Error_class.Prefix_range_dropped
      (Llmsim.Fault.Named_list "our-networks")
  in
  let chat =
    Llmsim.Chat.start ~seed:5 ~force_faults:[ f ] ~suppress_random:true
      ~regression_rate:0.0 ~reintroduction_rate:0.0 Llmsim.Fault.Junos_cfg
      ~correct:correct_junos
  in
  (* Auto prompts never fix it directly; eventually it morphs into the bad
     prefix-list syntax. *)
  let rec poke n =
    if n = 0 then Alcotest.fail "never morphed in 50 prompts"
    else
      match Llmsim.Chat.live_faults chat with
      | [ f' ]
        when Llmsim.Error_class.equal f'.Llmsim.Fault.class_
               Llmsim.Error_class.Bad_prefix_list_syntax ->
          ()
      | _ ->
          Llmsim.Chat.respond chat (Llmsim.Chat.auto_prompt f);
          poke (n - 1)
  in
  poke 50;
  check bool_t "target preserved" true
    (match Llmsim.Chat.live_faults chat with
    | [ f' ] -> f'.Llmsim.Fault.target = Llmsim.Fault.Named_list "our-networks"
    | _ -> false)

let test_chat_unmatched_prompt_is_noop () =
  let f = Llmsim.Fault.make Llmsim.Error_class.Missing_local_as Llmsim.Fault.Whole_config in
  let chat =
    Llmsim.Chat.start ~seed:5 ~force_faults:[ f ] ~suppress_random:true
      Llmsim.Fault.Junos_cfg ~correct:correct_junos
  in
  let other = Llmsim.Fault.make Llmsim.Error_class.Wrong_med (Llmsim.Fault.Policy "nope") in
  Llmsim.Chat.respond chat (Llmsim.Chat.human_prompt other);
  check int_t "fault survives unrelated prompt" 1
    (List.length (Llmsim.Chat.live_faults chat))

let test_chat_regression_possible () =
  (* With regression rate 1.0, fixing a fault must introduce another. *)
  let f = Llmsim.Fault.make Llmsim.Error_class.Missing_local_as Llmsim.Fault.Whole_config in
  let chat =
    Llmsim.Chat.start ~seed:5 ~force_faults:[ f ] ~suppress_random:true
      ~regression_rate:1.0 ~reintroduction_rate:0.0 Llmsim.Fault.Junos_cfg
      ~correct:correct_junos
  in
  Llmsim.Chat.respond chat (Llmsim.Chat.human_prompt f);
  check bool_t "a new fault appeared" true (Llmsim.Chat.live_faults chat <> [])

(* Property: rendering with any single fault still yields text the parser
   survives (corrupted drafts never crash the verifiers). *)
let prop_render_total =
  let ops =
    Llmsim.Fault.opportunities Llmsim.Fault.Junos_cfg correct_junos
    @ [
        Llmsim.Fault.make Llmsim.Error_class.Bad_prefix_list_syntax
          (Llmsim.Fault.Named_list "our-networks");
      ]
  in
  QCheck2.Test.make ~name:"junos render/parse total under any fault" ~count:100
    (QCheck2.Gen.int_bound (List.length ops - 1)) (fun i ->
      let f = List.nth ops i in
      let text = Llmsim.Fault.render Llmsim.Fault.Junos_cfg correct_junos [ f ] in
      let _, _ = Juniper.Parser.parse text in
      true)

let prop_render_cisco_total =
  let ops = Llmsim.Fault.opportunities Llmsim.Fault.Cisco_cfg hub_correct in
  QCheck2.Test.make ~name:"cisco render/parse total under any fault" ~count:100
    (QCheck2.Gen.int_bound (List.length ops - 1)) (fun i ->
      let f = List.nth ops i in
      let text = Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub_correct [ f ] in
      let _, _ = Cisco.Parser.parse text in
      true)

let props = List.map QCheck_alcotest.to_alcotest [ prop_render_total; prop_render_cisco_total ]

let () =
  Alcotest.run "llmsim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "choice" `Quick test_rng_choice;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
        ] );
      ( "faults",
        [
          Alcotest.test_case "junos opportunities" `Quick test_junos_opportunities;
          Alcotest.test_case "cisco opportunities" `Quick test_cisco_opportunities;
          Alcotest.test_case "clean render" `Quick test_render_no_faults_is_clean;
          Alcotest.test_case "missing local-as" `Quick test_render_missing_local_as;
          Alcotest.test_case "bad prefix list" `Quick test_render_bad_prefix_list;
          Alcotest.test_case "cli keywords" `Quick test_render_cli_keywords;
          Alcotest.test_case "neighbor outside bgp" `Quick test_render_neighbor_outside_bgp;
          Alcotest.test_case "and/or confusion" `Quick test_render_and_or_confusion;
          Alcotest.test_case "match community literal" `Quick
            test_render_match_community_literal;
          Alcotest.test_case "semantic fault" `Quick test_render_ir_fault_changes_semantics;
          Alcotest.test_case "literal matches whole tokens" `Quick
            test_render_literal_whole_tokens;
          Alcotest.test_case "cached and one-pass render differential" `Quick
            test_render_differential;
        ] );
      ( "chat",
        [
          Alcotest.test_case "deterministic" `Quick test_chat_deterministic;
          Alcotest.test_case "iip suppression" `Quick test_chat_iip_suppression;
          Alcotest.test_case "forced faults fixable" `Quick test_chat_forced_faults_fixable;
          Alcotest.test_case "redistribution resists auto" `Quick
            test_chat_auto_never_fixes_redistribution;
          Alcotest.test_case "prefix range morphs" `Quick test_chat_prefix_range_morphs;
          Alcotest.test_case "unmatched prompt noop" `Quick test_chat_unmatched_prompt_is_noop;
          Alcotest.test_case "regression possible" `Quick test_chat_regression_possible;
        ] );
      ("properties", props);
    ]
