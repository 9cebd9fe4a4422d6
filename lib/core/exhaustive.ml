module S = Dramstress_dram.Stress
module Sc = Dramstress_dram.Sim_config
module O = Dramstress_dram.Ops
module D = Dramstress_defect.Defect
module Tel = Dramstress_util.Telemetry

let h_point =
  Tel.Histogram.make ~unit_:"ms" ~lo:1e-2 ~hi:1e6 ~buckets:40
    "core.sweep.point_ms"

type t = {
  best : S.t;
  best_br : Border.result;
  grid_size : int;
  simulations : int;
  ranking : (S.t * Border.result) list;
  failures : S.t Dramstress_util.Outcome.failure list;
}

let optimize ?(config = Sc.default)
    ?(tcyc_values = [ 55e-9; 60e-9; 65e-9 ])
    ?(temp_values = [ -33.0; 27.0; 87.0 ])
    ?(vdd_values = [ 2.1; 2.4; 2.7 ]) ~nominal ~kind ~placement detection =
  let polarity = D.polarity kind in
  let before = O.Cache.(stats default).requests in
  let combos =
    List.concat_map
      (fun tcyc ->
        List.concat_map
          (fun temp_c ->
            List.map
              (fun vdd -> { nominal with S.tcyc; temp_c; vdd })
              vdd_values)
          temp_values)
      tcyc_values
  in
  (* every SC evaluation is independent, so the factorial grid fans out
     over domains; border searches within each SC stay sequential. A
     grid point whose search fails outright becomes a [Failed] slot and
     the remaining SCs are still ranked. *)
  let scored, failures =
    Dramstress_util.Outcome.partition
      (Dramstress_util.Par.parallel_map_outcomes
         ~jobs:(Sc.resolve_jobs config) ~retries_of:O.retries_of
         (fun sc ->
           Tel.Histogram.time_ms h_point (fun () ->
               Tel.with_span "exhaustive.point"
                 ~attrs:(fun () ->
                   [ ("tcyc", Tel.Float sc.S.tcyc);
                     ("temp_c", Tel.Float sc.S.temp_c);
                     ("vdd", Tel.Float sc.S.vdd) ])
                 (fun () ->
                   ( sc,
                     Border.search ~config ~stress:sc
                       ~kind ~placement detection ))))
         combos)
  in
  let ranking =
    List.sort
      (fun (_, a) (_, b) ->
        Float.compare
          (Border.coverage_width polarity b)
          (Border.coverage_width polarity a))
      scored
  in
  match ranking with
  | [] -> invalid_arg "Exhaustive.optimize: empty grid or every point failed"
  | (best, best_br) :: _ ->
    {
      best;
      best_br;
      grid_size = List.length combos;
      simulations = O.Cache.(stats default).requests - before;
      ranking;
      failures;
    }

type comparison = {
  exhaustive : t;
  probe_sc : S.t;
  probe_br : Border.result;
  probe_simulations : int;
  agreement : bool;
}

let compare_methods ?config ~nominal ~kind ~placement () =
  let detection =
    Detection.standard ~victim:(D.logical_victim kind placement) ~primes:2
  in
  let exhaustive =
    optimize ?config ~nominal ~kind ~placement detection
  in
  let before = O.Cache.(stats default).requests in
  let e =
    Sc_eval.evaluate ?config ~nominal ~kind ~placement ()
  in
  let probe_simulations = O.Cache.(stats default).requests - before in
  let close a b rel = Float.abs (a -. b) <= rel *. Float.abs b +. 1e-12 in
  let agreement =
    let p = e.Sc_eval.stressed and x = exhaustive.best in
    (* within one grid notch on each axis *)
    close p.S.tcyc x.S.tcyc 0.10
    && Float.abs (p.S.temp_c -. x.S.temp_c) <= 61.0
    && close p.S.vdd x.S.vdd 0.15
  in
  {
    exhaustive;
    probe_sc = e.Sc_eval.stressed;
    probe_br = e.Sc_eval.stressed_br;
    probe_simulations;
    agreement;
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v2>exhaustive search over %d SCs (%d simulations%s):@ best: %a -> %a@]"
    t.grid_size t.simulations
    (match List.length t.failures with
    | 0 -> ""
    | n -> Printf.sprintf ", %d points failed" n)
    S.pp t.best Border.pp_result t.best_br

let pp_comparison ppf c =
  Format.fprintf ppf
    "@[<v2>method comparison:@ %a@ probe method: %a -> %a (%d simulations)@ \
     agreement within one grid notch: %b@ speedup: %.1fx fewer simulations@]"
    pp c.exhaustive S.pp c.probe_sc Border.pp_result c.probe_br
    c.probe_simulations c.agreement
    (float_of_int c.exhaustive.simulations
    /. float_of_int (Int.max 1 c.probe_simulations))
