(* Tests for the CoSynth core: humanizer prompt formats (Tables 1 & 3),
   modularizer oracle and local specs, the VPP driver loops, leverage
   metrics, and the global-vs-local experiment. *)

open Netcore
open Policy

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn
let comm = Community.of_string_exn

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* IIP database                                                        *)
(* ------------------------------------------------------------------ *)

let test_iip_defaults () =
  check int_t "three defaults" 3 (List.length Cosynth.Iip.defaults);
  check bool_t "find" true (Cosynth.Iip.find "additive-community" <> None);
  check bool_t "missing" true (Cosynth.Iip.find "nope" = None);
  check bool_t "render mentions additive" true
    (contains ~sub:"additive" (Cosynth.Iip.render Cosynth.Iip.defaults))

(* ------------------------------------------------------------------ *)
(* Humanizer formats                                                   *)
(* ------------------------------------------------------------------ *)

let test_humanizer_syntax_prompt () =
  let d = Diag.error ~line:3 "'policy-options prefix-list our-networks 1.2.3.0/24-32' is not valid Juniper syntax" in
  let p = Cosynth.Humanizer.of_diag d in
  check bool_t "Table 1 syntax format" true
    (contains ~sub:"There is a syntax error:" p.Cosynth.Humanizer.text);
  check bool_t "ref inferred" true
    (List.exists
       (fun (f : Llmsim.Fault.t) ->
         Llmsim.Error_class.equal f.Llmsim.Fault.class_
           Llmsim.Error_class.Bad_prefix_list_syntax
         && f.Llmsim.Fault.target = Llmsim.Fault.Named_list "our-networks")
       p.Cosynth.Humanizer.refs)

let test_humanizer_structural_prompt () =
  let finding =
    Campion.Differ.Structural
      (Campion.Differ.Missing_policy
         {
           neighbor = ip "2.3.4.5";
           direction = Campion.Differ.Import;
           missing_in_translation = true;
         })
  in
  let p = Cosynth.Humanizer.of_campion finding in
  (* Table 1's structural mismatch example, verbatim structure. *)
  check bool_t "format" true
    (contains
       ~sub:
         "In the original configuration, there is an import route map for bgp \
          neighbor 2.3.4.5, but in the translation, there is no corresponding route \
          map"
       p.Cosynth.Humanizer.text)

let test_humanizer_attribute_prompt () =
  let finding =
    Campion.Differ.Attribute
      {
        Campion.Differ.component = "OSPF link for Loopback0";
        translated_component = "lo0.0";
        attribute = "cost";
        original_value = "1";
        translated_value = "0";
      }
  in
  let p = Cosynth.Humanizer.of_campion finding in
  check bool_t "Table 1 attribute format" true
    (contains
       ~sub:
         "In the original configuration, the OSPF link for Loopback0 has cost set \
          to 1, but in the translation, the corresponding link to lo0.0 has cost \
          set to 0"
       p.Cosynth.Humanizer.text);
  check bool_t "targets loopback" true
    (List.exists
       (fun (f : Llmsim.Fault.t) ->
         f.Llmsim.Fault.target = Llmsim.Fault.Interface (Iface.loopback 0))
       p.Cosynth.Humanizer.refs)

let test_humanizer_behavior_prompt () =
  let finding =
    Campion.Differ.Behavior
      {
        Campion.Differ.policy = "to_provider";
        neighbor = Some (ip "2.3.4.5");
        direction = Campion.Differ.Export;
        example = Route.make (pfx "1.2.3.0/25");
        original_action = Action.Permit;
        translated_action = Action.Deny;
        is_redistribution = false;
        effect_detail = [];
      }
  in
  let p = Cosynth.Humanizer.of_campion finding in
  check bool_t "Table 1 policy format" true
    (contains
       ~sub:
         "In the original configuration, for the prefix 1.2.3.0/25, the BGP export \
          policy to_provider for BGP neighbor 2.3.4.5 performs the following \
          action: PERMIT"
       p.Cosynth.Humanizer.text);
  check bool_t "translation side" true
    (contains
       ~sub:
         "the corresponding BGP export policy to_provider performs the following \
          action: DENY"
       p.Cosynth.Humanizer.text)

let test_humanizer_semantic_prompt () =
  let spec =
    {
      Batfish.Search_route_policies.policy = "DROP_COMMUNITY";
      space = Symbolic.Pred.full;
      requirement = Batfish.Search_route_policies.Denies;
      description = "";
    }
  in
  let v =
    {
      Batfish.Search_route_policies.spec;
      example =
        Route.make ~communities:(Community.Set.singleton (comm "100:1")) (pfx "5.0.0.0/24");
      got_action = Action.Permit;
      at_seq = Some 20;
      replaced_communities = false;
    }
  in
  let p = Cosynth.Humanizer.of_violation v in
  (* Table 3's semantic error example. *)
  check bool_t "format" true
    (contains
       ~sub:
         "The route-map DROP_COMMUNITY permits routes that have the community \
          100:1. However, they should be denied."
       p.Cosynth.Humanizer.text)

let test_humanizer_topology_prompt () =
  let star = Star.make ~routers:3 in
  let broken =
    let correct =
      (List.nth (Cosynth.Modularizer.plan star) 1).Cosynth.Modularizer.correct
    in
    match correct.Config_ir.bgp with
    | Some b -> { correct with Config_ir.bgp = Some { b with Config_ir.asn = 3 } }
    | None -> assert false
  in
  match Topoverify.Verifier.check star.Star.topology ~router:"R2" broken with
  | f :: _ ->
      let p = Cosynth.Humanizer.of_topology f in
      check bool_t "Table 3 format" true
        (contains ~sub:"Local AS number does not match. Expected 2, found 3"
           p.Cosynth.Humanizer.text);
      check bool_t "ref" true
        (List.exists
           (fun (f : Llmsim.Fault.t) ->
             Llmsim.Error_class.equal f.Llmsim.Fault.class_ Llmsim.Error_class.Wrong_local_as)
           p.Cosynth.Humanizer.refs)
  | [] -> Alcotest.fail "expected a finding"

(* ------------------------------------------------------------------ *)
(* Modularizer                                                         *)
(* ------------------------------------------------------------------ *)

let star7 = Star.make ~routers:7
let plan7 = Cosynth.Modularizer.plan star7

let test_plan_shape () =
  check int_t "one task per router" 7 (List.length plan7);
  check bool_t "hub first" true ((List.hd plan7).Cosynth.Modularizer.router = "R1");
  let hub = List.hd plan7 in
  (* 6 tag specs + 6 * (5 deny + 1 permit) filter specs. *)
  check int_t "hub specs" (6 + (6 * 6)) (List.length hub.Cosynth.Modularizer.specs);
  List.iter
    (fun (t : Cosynth.Modularizer.router_task) ->
      if t.Cosynth.Modularizer.router <> "R1" then
        check int_t "spokes have no specs" 0 (List.length t.Cosynth.Modularizer.specs))
    (List.tl plan7)

let test_oracle_configs_verify () =
  (* Every oracle config is syntax-clean, topology-clean and satisfies its
     local specs — otherwise the loop could never converge. *)
  List.iter
    (fun (t : Cosynth.Modularizer.router_task) ->
      let text = Cisco.Printer.print t.Cosynth.Modularizer.correct in
      let ir, diags = Batfish.Parse_check.check Batfish.Parse_check.Cisco_ios text in
      check bool_t (t.Cosynth.Modularizer.router ^ " syntax") true
        (List.filter Diag.is_error diags = []);
      check int_t
        (t.Cosynth.Modularizer.router ^ " topology")
        0
        (List.length
           (Topoverify.Verifier.check star7.Star.topology
              ~router:t.Cosynth.Modularizer.router ir));
      List.iter
        (fun (spec, outcome) ->
          if outcome <> Batfish.Search_route_policies.Holds then
            Alcotest.failf "%s: spec '%s' does not hold" t.Cosynth.Modularizer.router
              spec.Batfish.Search_route_policies.description)
        (Batfish.Search_route_policies.check_all ir t.Cosynth.Modularizer.specs))
    plan7

let test_oracle_network_satisfies_global_policy () =
  let configs =
    List.map
      (fun (t : Cosynth.Modularizer.router_task) ->
        (t.Cosynth.Modularizer.router, t.Cosynth.Modularizer.correct))
      plan7
  in
  let ok, violations = Cosynth.Modularizer.no_transit_holds star7 configs in
  if not ok then Alcotest.failf "violations: %s" (String.concat "; " violations)

let test_plan_prompt_mentions_policy () =
  let hub = List.hd plan7 in
  check bool_t "mentions no-transit machinery" true
    (contains ~sub:"additive" hub.Cosynth.Modularizer.prompt);
  check bool_t "mentions communities" true
    (contains ~sub:"100:1" hub.Cosynth.Modularizer.prompt)

let test_and_or_violates_local_spec () =
  (* Applying the AND/OR fault to the hub must violate a Denies spec — this
     is the exact bug Batfish catches in Section 4.2. *)
  let hub = List.hd plan7 in
  let map = Cosynth.Modularizer.egress_map_name "R2" in
  let text =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub.Cosynth.Modularizer.correct
      [ Llmsim.Fault.make Llmsim.Error_class.And_or_confusion (Llmsim.Fault.Policy map) ]
  in
  let ir, _ = Cisco.Parser.parse text in
  let violated =
    List.exists
      (fun (_, outcome) ->
        match outcome with
        | Batfish.Search_route_policies.Violated v ->
            v.Batfish.Search_route_policies.spec.Batfish.Search_route_policies.policy = map
        | _ -> false)
      (Batfish.Search_route_policies.check_all ir hub.Cosynth.Modularizer.specs)
  in
  check bool_t "violation found" true violated

let test_as_path_strategy_is_sound () =
  (* GPT-4's "innovative strategy" under global prompting — AS-path regex
     filtering at the hub — actually satisfies the global policy when
     written correctly. *)
  let star = Star.make ~routers:5 in
  let configs =
    ("R1", Cosynth.Modularizer.as_path_hub_config star)
    :: List.filter_map
         (fun (t : Cosynth.Modularizer.router_task) ->
           if t.Cosynth.Modularizer.router = "R1" then None
           else Some (t.Cosynth.Modularizer.router, t.Cosynth.Modularizer.correct))
         (Cosynth.Modularizer.plan star)
  in
  let ok, violations = Cosynth.Modularizer.no_transit_holds star configs in
  if not ok then Alcotest.failf "violations: %s" (String.concat "; " violations)

let test_as_path_strategy_parses () =
  let star = Star.make ~routers:4 in
  let text = Cisco.Printer.print (Cosynth.Modularizer.as_path_hub_config star) in
  check bool_t "round trips through the dialect" true
    (Batfish.Parse_check.syntax_ok Batfish.Parse_check.Cisco_ios text)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let cisco_text = Cisco.Samples.border_router

let test_translation_pinned_table2 () =
  let faults = Cosynth.Driver.table2_faults ~cisco_text in
  check int_t "eight forced faults" 8 (List.length faults);
  let r =
    Cosynth.Driver.run_translation ~seed:7 ~force_faults:faults ~suppress_random:true
      ~cisco_text ()
  in
  check bool_t "verified" true r.Cosynth.Driver.verified;
  let fixed cls =
    List.exists
      (fun (o : Cosynth.Driver.class_outcome) ->
        Llmsim.Error_class.equal o.Cosynth.Driver.class_ cls
        && o.Cosynth.Driver.fixed_by_generated_prompt)
      r.Cosynth.Driver.outcomes
  in
  (* Table 2: Yes rows. *)
  check bool_t "local-as yes" true (fixed Llmsim.Error_class.Missing_local_as);
  check bool_t "import yes" true (fixed Llmsim.Error_class.Missing_import_policy);
  check bool_t "cost yes" true (fixed Llmsim.Error_class.Ospf_cost_wrong);
  check bool_t "med yes" true (fixed Llmsim.Error_class.Wrong_med);
  (* Table 2: No rows. *)
  check bool_t "prefix range no" false (fixed Llmsim.Error_class.Prefix_range_dropped);
  check bool_t "redistribution no" false (fixed Llmsim.Error_class.Redistribution_unscoped)

let test_translation_random_converges () =
  List.iter
    (fun seed ->
      let r = Cosynth.Driver.run_translation ~seed ~cisco_text () in
      check bool_t (Printf.sprintf "seed %d verified" seed) true r.Cosynth.Driver.verified;
      check bool_t "leverage >= 1" true
        (Cosynth.Driver.leverage r.Cosynth.Driver.transcript >= 1.0))
    [ 1; 2; 3; 4; 5 ]

let test_translation_final_text_parses () =
  let r = Cosynth.Driver.run_translation ~seed:9 ~cisco_text () in
  check bool_t "final text clean" true
    (Batfish.Parse_check.syntax_ok Batfish.Parse_check.Junos r.Cosynth.Driver.final_text)

let test_no_transit_converges () =
  List.iter
    (fun seed ->
      let r = Cosynth.Driver.run_no_transit ~seed ~routers:7 () in
      check bool_t (Printf.sprintf "seed %d global ok" seed) true r.Cosynth.Driver.global_ok;
      check bool_t "all routers verified" true
        (List.for_all snd r.Cosynth.Driver.per_router_verified);
      check int_t "seven configs" 7 (List.length r.Cosynth.Driver.configs))
    [ 1; 2; 3 ]

let test_no_transit_small_star () =
  let r = Cosynth.Driver.run_no_transit ~seed:4 ~routers:3 () in
  check bool_t "3-router star works" true r.Cosynth.Driver.global_ok

let test_no_transit_final_configs_pass_global_check () =
  let star = Star.make ~routers:5 in
  let r = Cosynth.Driver.run_no_transit ~seed:11 ~routers:5 () in
  let ok, _ = Cosynth.Modularizer.no_transit_holds star r.Cosynth.Driver.configs in
  check bool_t "recheck passes" true ok

let test_transcript_accounting () =
  let r = Cosynth.Driver.run_no_transit ~seed:2 ~routers:4 () in
  let t = r.Cosynth.Driver.transcript in
  let autos =
    List.length
      (List.filter (fun (e : Cosynth.Driver.event) -> e.Cosynth.Driver.origin = Cosynth.Driver.Auto) t.Cosynth.Driver.events)
  in
  let humans =
    List.length
      (List.filter (fun (e : Cosynth.Driver.event) -> e.Cosynth.Driver.origin = Cosynth.Driver.Human) t.Cosynth.Driver.events)
  in
  check int_t "auto count matches events" t.Cosynth.Driver.auto_prompts autos;
  check int_t "human count matches events" t.Cosynth.Driver.human_prompts humans;
  check bool_t "initial prompt is human" true (humans >= 1)

(* ------------------------------------------------------------------ *)
(* Metrics and global-vs-local                                         *)
(* ------------------------------------------------------------------ *)

let test_metrics_summary () =
  let s = Cosynth.Metrics.translation_summary ~runs:5 ~cisco_text () in
  check int_t "runs" 5 s.Cosynth.Metrics.runs;
  check int_t "all converge" 5 s.Cosynth.Metrics.converged;
  check bool_t "leverage positive" true (s.Cosynth.Metrics.mean_leverage > 1.0);
  check bool_t "min <= mean <= max" true
    (s.Cosynth.Metrics.min_leverage <= s.Cosynth.Metrics.mean_leverage
    && s.Cosynth.Metrics.mean_leverage <= s.Cosynth.Metrics.max_leverage)

let test_global_vs_local () =
  let c = Cosynth.Global_vs_local.compare ~runs:10 ~routers:7 () in
  (* The paper's observation: local-policy prompting converges reliably,
     global prompting mostly does not. *)
  check bool_t "local converges more" true
    (c.Cosynth.Global_vs_local.local_convergence_rate
    > c.Cosynth.Global_vs_local.global_convergence_rate);
  check bool_t "local always converges" true
    (c.Cosynth.Global_vs_local.local_convergence_rate = 1.0);
  check bool_t "global oscillates" true (c.Cosynth.Global_vs_local.global_mean_switches > 1.0)

let test_transcript_markdown () =
  let r = Cosynth.Driver.run_translation ~seed:3 ~cisco_text () in
  let md =
    Cosynth.Driver.transcript_to_markdown ~title:"Test run" r.Cosynth.Driver.transcript
  in
  check bool_t "has title" true (contains ~sub:"# Test run" md);
  check bool_t "tags humans" true (contains ~sub:"[HUMAN]" md);
  check bool_t "tags automated" true (contains ~sub:"[automated]" md);
  check bool_t "reports leverage" true (contains ~sub:"leverage" md);
  (* One section per event. *)
  let sections =
    List.length
      (List.filter
         (fun l -> String.length l > 3 && String.sub l 0 3 = "## ")
         (String.split_on_char '\n' md))
  in
  check int_t "sections = events" 
    (List.length r.Cosynth.Driver.transcript.Cosynth.Driver.events)
    sections

let test_global_violation_prompt () =
  let p =
    Cosynth.Humanizer.of_global_violations ~hub:"R1"
      [ "R2 can reach R3's network 10.3.0.0/24 (transit through the customer!)" ]
  in
  check bool_t "quotes the counterexample" true
    (contains ~sub:"R2 can reach R3's network" p.Cosynth.Humanizer.text);
  check bool_t "points at attachments" true
    (contains ~sub:"attached to which" p.Cosynth.Humanizer.text);
  check bool_t "refs crossed attachment" true
    (List.exists
       (fun (f : Llmsim.Fault.t) ->
         Llmsim.Error_class.equal f.Llmsim.Fault.class_
           Llmsim.Error_class.Crossed_policy_attachment)
       p.Cosynth.Humanizer.refs)

let test_metrics_stddev () =
  let s = Cosynth.Metrics.translation_summary ~runs:8 ~cisco_text () in
  check bool_t "stddev non-negative" true (s.Cosynth.Metrics.stddev_leverage >= 0.0);
  check bool_t "stddev bounded by range" true
    (s.Cosynth.Metrics.stddev_leverage
    <= s.Cosynth.Metrics.max_leverage -. s.Cosynth.Metrics.min_leverage +. 1e-9)

let test_quality_reduces_leverage () =
  (* The paper's prediction: a near-perfect future LLM needs almost no
     automatic correction, so leverage decreases. *)
  let mean q =
    let ts =
      List.init 8 (fun i ->
          (Cosynth.Driver.run_translation ~seed:(6000 + i) ~quality:q ~cisco_text ())
            .Cosynth.Driver.transcript)
    in
    (Cosynth.Metrics.summarize ts).Cosynth.Metrics.mean_auto
  in
  let low = mean 0.0 and high = mean 0.95 in
  check bool_t "near-perfect model needs far fewer automated prompts" true
    (high < low /. 3.0)

let test_quality_all_converge () =
  List.iter
    (fun q ->
      let r = Cosynth.Driver.run_translation ~seed:77 ~quality:q ~cisco_text () in
      check bool_t (Printf.sprintf "quality %.2f verified" q) true r.Cosynth.Driver.verified)
    [ 0.0; 0.5; 1.0 ]

let test_report_table () =
  let s = Cosynth.Report.table ~title:"T" ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  check bool_t "has title" true (contains ~sub:"T\n" s);
  check bool_t "aligned" true (contains ~sub:"333" s)

(* ------------------------------------------------------------------ *)
(* Golden digests across revisions                                     *)
(* ------------------------------------------------------------------ *)

(* Every other byte-identity test compares two code paths at one revision;
   these pin MD5 digests of whole-run outputs, so a refactor of the driver
   loop is checked against the behaviour it replaced. Each use case runs
   under four settings: plain, a Byzantine adversary (LLM, feedback and
   verifier lies), the trust layer against lying and colluding verifiers,
   and verifier chaos. A digest change means the runs changed: bless a new
   value only for a deliberate behaviour change. *)

let golden_settings = Run_settings.all

let transcript_bytes t = Netcore.Json.to_string (Cosynth.Driver.transcript_to_json t)
let golden_digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let golden_translation (_, resilience, adversary, trust) =
  let run ?force_faults ?suppress_random seed =
    let r =
      Cosynth.Driver.run_translation ~seed ?force_faults ?suppress_random ?resilience
        ?adversary ?trust ~cisco_text ()
    in
    transcript_bytes r.Cosynth.Driver.transcript
    :: r.Cosynth.Driver.final_text
    :: string_of_bool r.Cosynth.Driver.verified
    :: List.map
         (fun (o : Cosynth.Driver.class_outcome) ->
           Printf.sprintf "%s=%b"
             (Llmsim.Error_class.to_string o.Cosynth.Driver.class_)
             o.Cosynth.Driver.fixed_by_generated_prompt)
         r.Cosynth.Driver.outcomes
  in
  let table2 =
    run ~force_faults:(Cosynth.Driver.table2_faults ~cisco_text) ~suppress_random:true 7
  in
  golden_digest (List.concat (table2 :: List.map run [ 1; 2; 3; 4; 5 ]))

let golden_no_transit ?pool (_, resilience, adversary, trust) =
  let run ?force_hub_faults seed =
    let r =
      Cosynth.Driver.run_no_transit ~seed ?pool ?force_hub_faults ?resilience ?adversary
        ?trust ~routers:7 ()
    in
    (transcript_bytes r.Cosynth.Driver.transcript
    :: string_of_bool r.Cosynth.Driver.global_ok
    :: r.Cosynth.Driver.global_violations)
    @ List.map
        (fun (name, ir) ->
          Printf.sprintf "%s %b\n%s" name
            (List.assoc name r.Cosynth.Driver.per_router_verified)
            (Cisco.Printer.print ir))
        r.Cosynth.Driver.configs
  in
  let crossed_hub =
    run
      ~force_hub_faults:
        [
          Llmsim.Fault.make Llmsim.Error_class.Crossed_policy_attachment
            Llmsim.Fault.Whole_config;
        ]
      5
  in
  golden_digest (List.concat (crossed_hub :: List.map run [ 1; 2; 3 ]))

let golden_incremental (_, resilience, adversary, trust) =
  let run seed =
    let r =
      Cosynth.Driver.run_incremental ~seed ?resilience ?adversary ?trust ~routers:5 ()
    in
    [
      transcript_bytes r.Cosynth.Driver.inc_transcript;
      Cisco.Printer.print r.Cosynth.Driver.hub_config;
      Printf.sprintf "%b %b %b" r.Cosynth.Driver.specs_hold r.Cosynth.Driver.global_ok
        r.Cosynth.Driver.interference_caught;
    ]
  in
  golden_digest (List.concat_map run [ 1; 2; 3 ])

(* The 60-router hub's own chat under the default IIPs: every draft of a
   few correction rounds per seed, prompting the live faults in turn with
   alternating automated and human prompts. It pins the rendered text at
   scale, where the hub config is ~238 KB, so a change to how drafts are
   printed must leave every one of them byte-identical. *)
let golden_hub60 () =
  let star = Star.make ~routers:60 in
  let hub =
    List.find
      (fun (t : Cosynth.Modularizer.router_task) ->
        t.Cosynth.Modularizer.router = star.Star.hub)
      (Cosynth.Modularizer.plan star)
  in
  let iips = Cosynth.Iip.ids Cosynth.Iip.defaults in
  let run seed =
    let chat =
      Llmsim.Chat.start ~seed ~iips Llmsim.Fault.Cisco_cfg
        ~correct:hub.Cosynth.Modularizer.correct
    in
    let rec rounds k acc =
      let live = Llmsim.Chat.live_faults chat in
      let acc =
        Llmsim.Chat.draft chat
        :: String.concat "," (List.map Llmsim.Fault.to_string live)
        :: acc
      in
      if k = 6 || live = [] then List.rev acc
      else
        let f = List.nth live (k mod List.length live) in
        Llmsim.Chat.respond chat
          (if k mod 2 = 0 then Llmsim.Chat.auto_prompt f else Llmsim.Chat.human_prompt f);
        rounds (k + 1) acc
    in
    rounds 0 []
  in
  golden_digest (List.concat_map run [ 1; 2; 3; 4 ])

let golden_hub60_pin = "b284d7e7e588dff148cd794c2839dcd0"

let test_golden_hub60 () =
  check Alcotest.string "hub drafts at 60 routers" golden_hub60_pin (golden_hub60 ())

(* The border router's translation chat, as the driver starts it: every
   Junos draft and its live faults over up to 20 correction rounds, for
   seeds 1-8 and the Table 2 forced-fault run. Each round prompts one live
   fault, alternating automated and human prompts, so the drafts cover
   fixes, morphs, regressions and reintroductions. The translation pin
   above covers final texts only; this one covers every draft in between. *)
let golden_border_junos () =
  let correct = Juniper.Translate.of_cisco_ir (fst (Cisco.Parser.parse cisco_text)) in
  let run ?(force_faults = []) ?(suppress_random = false) seed =
    let chat =
      Llmsim.Chat.start ~seed ~force_faults ~suppress_random ~regression_rate:0.2
        Llmsim.Fault.Junos_cfg ~correct
    in
    let rec rounds k acc =
      let live = Llmsim.Chat.live_faults chat in
      let acc =
        Llmsim.Chat.draft chat
        :: String.concat "," (List.map Llmsim.Fault.to_string live)
        :: acc
      in
      if k = 20 || live = [] then List.rev acc
      else
        let f = List.nth live (k mod List.length live) in
        Llmsim.Chat.respond chat
          (if k mod 2 = 0 then Llmsim.Chat.auto_prompt f else Llmsim.Chat.human_prompt f);
        rounds (k + 1) acc
    in
    rounds 0 []
  in
  let table2 =
    run ~force_faults:(Cosynth.Driver.table2_faults ~cisco_text) ~suppress_random:true 7
  in
  golden_digest (List.concat (table2 :: List.map run [ 1; 2; 3; 4; 5; 6; 7; 8 ]))

let golden_border_junos_pin = "e25aef704fb38e25fa515a9e34bdc43c"

let test_golden_border_junos () =
  check Alcotest.string "border-router Junos drafts" golden_border_junos_pin
    (golden_border_junos ())

(* The modularizer's whole plan (prompts, oracle configs and specs) at
   three star sizes, as the MD5 of its unshared marshalled bytes: a change
   to how [Modularizer.plan] builds its output must leave it structurally
   equal. *)
let golden_plans () =
  List.map
    (fun n ->
      let plan = Cosynth.Modularizer.plan (Star.make ~routers:n) in
      Digest.to_hex (Digest.string (Marshal.to_string plan [ Marshal.No_sharing ])))
    [ 7; 30; 60 ]

let golden_plans_pin =
  [
    "136ef5353323c83eef35b197a4fbdc28";
    "e7b78ca81a8e00f46b99f835e8a5abff";
    "c076c68b9114924e964c5f94596306f0";
  ]

let test_golden_plans () =
  check
    Alcotest.(list string)
    "plan digests at 7/30/60 routers" golden_plans_pin (golden_plans ())

(* setting -> (translation, no-transit, incremental) digests *)
let golden_pins =
  [
    ( "plain",
      ( "28132db1c975d4be256fc17f8125db24",
        "2034b9b41fe1f3d1c4c8f8bc62817a77",
        "63bd257ab47ec7f881b3d97ec7bf2427" ) );
    ( "adversary",
      ( "c280c9f49cf0b05d801b05305d3bfad4",
        "32b3a7ab0d1c649469d197d1c66b746d",
        "5f9c9aabb52c3aecce1ce6f38bf33464" ) );
    ( "trust",
      ( "8c63ab5a2a9d753b3a6bd2cc80348500",
        "ca41bf7a68e5ffe495e95ca510e5b0da",
        "9c7b697f3bfd20c04d26adacd0d504b0" ) );
    ( "chaos",
      ( "59ef5af913bc8c9f2bc1b4ae379ecf5b",
        "805d3acf653fb433665352db3d57325d",
        "4f8fc3fdf39242ac2f7f626d483bd996" ) );
  ]

let test_golden ((name, _, _, _) as setting) () =
  let translation, no_transit, incremental = List.assoc name golden_pins in
  let digest = Alcotest.string in
  check digest (name ^ " translation") translation (golden_translation setting);
  check digest (name ^ " no-transit") no_transit (golden_no_transit setting);
  let pool = Exec.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      check digest (name ^ " no-transit on a pool") no_transit
        (golden_no_transit ~pool setting));
  check digest (name ^ " incremental") incremental (golden_incremental setting)

let () =
  Alcotest.run "cosynth"
    [
      ("iip", [ Alcotest.test_case "defaults" `Quick test_iip_defaults ]);
      ( "humanizer",
        [
          Alcotest.test_case "syntax prompt" `Quick test_humanizer_syntax_prompt;
          Alcotest.test_case "structural prompt" `Quick test_humanizer_structural_prompt;
          Alcotest.test_case "attribute prompt" `Quick test_humanizer_attribute_prompt;
          Alcotest.test_case "behavior prompt" `Quick test_humanizer_behavior_prompt;
          Alcotest.test_case "semantic prompt" `Quick test_humanizer_semantic_prompt;
          Alcotest.test_case "topology prompt" `Quick test_humanizer_topology_prompt;
        ] );
      ( "modularizer",
        [
          Alcotest.test_case "plan shape" `Quick test_plan_shape;
          Alcotest.test_case "oracle configs verify" `Quick test_oracle_configs_verify;
          Alcotest.test_case "oracle network satisfies global" `Quick
            test_oracle_network_satisfies_global_policy;
          Alcotest.test_case "prompt mentions policy" `Quick test_plan_prompt_mentions_policy;
          Alcotest.test_case "and/or violates spec" `Quick test_and_or_violates_local_spec;
          Alcotest.test_case "as-path strategy sound" `Quick test_as_path_strategy_is_sound;
          Alcotest.test_case "as-path strategy parses" `Quick test_as_path_strategy_parses;
        ] );
      ( "driver",
        [
          Alcotest.test_case "table 2 pinned" `Quick test_translation_pinned_table2;
          Alcotest.test_case "translation converges" `Slow test_translation_random_converges;
          Alcotest.test_case "final text parses" `Quick test_translation_final_text_parses;
          Alcotest.test_case "no-transit converges" `Slow test_no_transit_converges;
          Alcotest.test_case "small star" `Quick test_no_transit_small_star;
          Alcotest.test_case "final configs pass global" `Quick
            test_no_transit_final_configs_pass_global_check;
          Alcotest.test_case "transcript accounting" `Quick test_transcript_accounting;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "summary" `Slow test_metrics_summary;
          Alcotest.test_case "global vs local" `Slow test_global_vs_local;
          Alcotest.test_case "transcript markdown" `Slow test_transcript_markdown;
          Alcotest.test_case "global violation prompt" `Quick test_global_violation_prompt;
          Alcotest.test_case "stddev" `Slow test_metrics_stddev;
          Alcotest.test_case "quality reduces leverage" `Slow test_quality_reduces_leverage;
          Alcotest.test_case "quality converges" `Slow test_quality_all_converge;
          Alcotest.test_case "report table" `Quick test_report_table;
        ] );
      ( "golden",
        List.map
          (fun ((name, _, _, _) as setting) ->
            Alcotest.test_case name `Quick (test_golden setting))
          golden_settings
        @ [
            Alcotest.test_case "hub drafts at 60 routers" `Quick test_golden_hub60;
            Alcotest.test_case "border-router Junos drafts" `Quick test_golden_border_junos;
            Alcotest.test_case "modularizer plans at 7/30/60 routers" `Quick
              test_golden_plans;
          ] );
    ]
