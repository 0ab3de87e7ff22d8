(* The four run settings the cross-revision tests use: plain, a Byzantine
   adversary (LLM, feedback and verifier lies), the trust layer against
   lying and colluding verifiers, and verifier chaos. Each entry is
   (name, resilience, adversary, trust). *)

let all =
  let adversary =
    Adversary.Spec.make
      ~llm:
        (Adversary.Llm.make ~truncated:0.05 ~wrong_dialect:0.02 ~stale:0.2 ~partial_fix:0.1
           ~off_topic:0.05 ~seed:2 ())
      ~findings:
        (Adversary.Findings.make ~dropped:0.1 ~duplicated:0.1 ~misattributed:0.1
           ~garbled:0.1 ~seed:4 ())
      ~verifier:
        (Adversary.Verifier.make ~false_negative:0.1 ~false_positive:0.1 ~mutated:0.1
           ~seed:5 ())
      ()
  in
  let liars =
    Adversary.Spec.make
      ~verifier:
        (Adversary.Verifier.make ~false_negative:0.5 ~false_positive:0.1 ~mutated:0.1
           ~seed:5 ())
      ~collusion:
        (Adversary.Collusion.make
           ~members:[ Resilience.Verifier.Parse_check; Resilience.Verifier.Route_policies ]
           ~oracle:true ~rate:0.35 ~seed:6 ())
      ()
  in
  let chaos =
    Resilience.Runtime.config
      ~chaos:
        (Resilience.Chaos.make ~crash_rate:0.1 ~timeout_rate:0.1 ~flake_rate:0.2
           ~truncate_rate:0.1 ~seed:11 ())
      ()
  in
  [
    ("plain", None, None, None);
    ("adversary", None, Some adversary, None);
    ("trust", None, Some liars, Some Resilience.Trust.default_config);
    ("chaos", Some chaos, None, None);
  ]
