(* Integration tests: every paper experiment at quick scale, and every
   claim it makes about the paper's shapes holds.  The claims (bands
   included) live beside the rows that measure them, in lib/experiments;
   `lrp_sim_cli bench` prints and checks the same ones. *)

open Lrp_experiments

(* One check per claim, named by its id, measured value and band. *)
let holds claims =
  List.iter
    (fun (c : Common.claim) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s = %g: %s" c.id c.measured c.text)
        true c.holds)
    claims

let failing claims =
  List.filter_map
    (fun (c : Common.claim) -> if c.holds then None else Some c.id)
    claims

let test_fig3_shapes () = holds (Fig3.claims (Fig3.run ~quick:true ()))

let test_mlfrr_ordering () =
  holds
    (Fig3.mlfrr_claims
       (Fig3.mlfrr_all ~quick:true [ Common.Bsd; Common.Soft_lrp ]))

let test_fig4_shapes () = holds (Fig4.claims (Fig4.run ~quick:true ()))
let test_table1_shapes () = holds (Table1.claims (Table1.run ~quick:true ()))
let test_table2_shapes () = holds (Table2.claims (Table2.run ~quick:true ()))
let test_fig5_shapes () = holds (Fig5.claims (Fig5.run ~quick:true ()))

(* Hand-built rows, no simulation: each set keeps the quick-scale shapes
   but one, and exactly that claim must fail. *)
let test_claims_fail_on_bad_rows () =
  let pt (offered, delivered, discards, ipq_drops) =
    { Fig3.offered; delivered; discards; ipq_drops }
  in
  let series system pts = { Fig3.system; points = List.map pt pts } in
  (* 4.4BSD holds its peak at 20k pkts/s: no livelock. *)
  let fig3 =
    [ series Common.Bsd [ (8_000., 6_262., 0, 0); (20_000., 6_262., 0, 3_342) ];
      series Common.Ni_lrp [ (14_000., 10_942., 0, 0); (20_000., 10_940., 5_402, 0) ];
      series Common.Soft_lrp [ (10_000., 9_125., 0, 0); (20_000., 6_400., 9, 0) ];
      series Common.Early_demux [ (20_000., 3_592., 9, 0) ] ]
  in
  Alcotest.(check (list string))
    "Figure 3: only the livelock claim fails" [ "fig3.bsd-livelock" ]
    (failing (Fig3.claims fig3));
  (* Table 2 is judged per RPC class: a sound Fast class does not hide a
     Medium class where SOFT-LRP finishes the worker well before NI-LRP. *)
  let row cls system worker_elapsed_s rpcs_per_sec worker_share =
    { Table2.system; cls; worker_elapsed_s; rpcs_per_sec; worker_share }
  in
  let table2 =
    Lrp_workload.Rpc.
      [ row Fast Common.Bsd 8.6 2_051. 0.18; row Fast Common.Soft_lrp 7.6 2_192. 0.20;
        row Fast Common.Ni_lrp 6.7 2_188. 0.22; row Medium Common.Bsd 66.5 2_050. 0.17;
        row Medium Common.Soft_lrp 50.5 2_022. 0.23;
        row Medium Common.Ni_lrp 54.8 2_181. 0.21 ]
  in
  let claims = Table2.claims table2 in
  Alcotest.(check int) "Table 2: three claims per class" 6 (List.length claims);
  Alcotest.(check (list string))
    "Table 2: only the Medium class's worker claim fails"
    [ "table2.medium.worker-sooner" ] (failing claims)

let suite =
  [ Alcotest.test_case "Figure 3 shapes (throughput vs load)" `Slow test_fig3_shapes;
    Alcotest.test_case "MLFRR ordering" `Slow test_mlfrr_ordering;
    Alcotest.test_case "Figure 4 shapes (latency under load)" `Slow test_fig4_shapes;
    Alcotest.test_case "Table 1 shapes (baseline performance)" `Slow test_table1_shapes;
    Alcotest.test_case "Table 2 shapes (RPC fairness)" `Slow test_table2_shapes;
    Alcotest.test_case "Figure 5 shapes (SYN flood)" `Slow test_fig5_shapes;
    Alcotest.test_case "claims fail on bad rows" `Quick
      test_claims_fail_on_bad_rows ]
