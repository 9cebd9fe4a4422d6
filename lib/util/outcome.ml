(* Structured per-point sweep outcomes.

   A long resistance sweep must not die because one pathological point
   cannot be simulated: each point either yields its payload or a
   [failure] that records which point died, with what error, after how
   many retries. Sweep layers collect failures alongside results and
   keep going. *)

type 'p failure = { point : 'p; error : exn; retries : int }

type ('p, 'a) t = Ok of 'a | Failed of 'p failure

let value ~default = function Ok v -> v | Failed _ -> default

let map f = function
  | Ok v -> Ok (f v)
  | Failed _ as outcome -> outcome

let map_point f = function
  | Ok _ as outcome -> outcome
  | Failed { point; error; retries } ->
    Failed { point = f point; error; retries }

(* one pass, both orders preserved *)
let partition outcomes =
  let oks, failures =
    List.fold_left
      (fun (oks, failures) -> function
        | Ok v -> (v :: oks, failures)
        | Failed f -> (oks, f :: failures))
      ([], []) outcomes
  in
  (List.rev oks, List.rev failures)

let oks outcomes = fst (partition outcomes)
let failures outcomes = snd (partition outcomes)

let error_message f = Printexc.to_string f.error

let pp_failure pp_point ppf f =
  Format.fprintf ppf "point %a failed after %d retries: %s" pp_point f.point
    f.retries (error_message f)
