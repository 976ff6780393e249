type t = { tick_seconds : float; demand : int array }

let create ~tick_seconds ~demand =
  if not (Float.is_finite tick_seconds) || tick_seconds <= 0. then
    invalid_arg "Trace.create: tick_seconds must be positive and finite";
  Array.iter
    (fun d -> if d < 0 then invalid_arg "Trace.create: negative demand")
    demand;
  { tick_seconds; demand = Array.copy demand }

let length t = Array.length t.demand

let demand t k =
  if k < 0 || k >= Array.length t.demand then
    invalid_arg "Trace.demand: tick out of range";
  t.demand.(k)

let peak t = Array.fold_left max 0 t.demand

(* --- generators --- *)

let check_noise noise =
  if not (Float.is_finite noise) || noise < 0. || noise > 1. then
    invalid_arg "Trace: noise must lie in [0, 1]"

(* One multiplicative draw per tick, taken even when noise = 0 so the
   stream position (and thus any later draws) does not depend on the
   noise setting. *)
let noisy rng ~noise d =
  let factor = 1. +. (noise *. ((2. *. Numeric.Prng.float rng) -. 1.)) in
  max 0 (int_of_float (Float.round (float_of_int d *. factor)))

let generate ?(tick_seconds = 60.) ?(noise = 0.) ~ticks ~seed shape =
  if ticks < 0 then invalid_arg "Trace: negative ticks";
  check_noise noise;
  let rng = Numeric.Prng.create seed in
  create ~tick_seconds
    ~demand:(Array.init ticks (fun k -> noisy rng ~noise (shape k)))

let diurnal ?tick_seconds ?noise ~ticks ~base ~amplitude ~period ~seed () =
  if base < 0 || amplitude < 0 then invalid_arg "Trace.diurnal: negative size";
  if period <= 0 then invalid_arg "Trace.diurnal: period must be positive";
  generate ?tick_seconds ?noise ~ticks ~seed (fun k ->
      let phase = 2. *. Float.pi *. float_of_int k /. float_of_int period in
      (* sin shifted to start at the trough: 0 at k = 0, 1 mid-period. *)
      let wave = (1. -. cos phase) /. 2. in
      base + int_of_float (Float.round (float_of_int amplitude *. wave)))

let burst ?tick_seconds ?noise ~ticks ~base ~height ~at ~width ~seed () =
  if base < 0 || height < 0 then invalid_arg "Trace.burst: negative size";
  if at < 0 || width < 0 then invalid_arg "Trace.burst: negative position";
  generate ?tick_seconds ?noise ~ticks ~seed (fun k ->
      if k >= at && k < at + width then base + height else base)

let flash_crowd ?tick_seconds ?noise ~ticks ~base ~peak ~at ~ramp ~decay ~seed
    () =
  if base < 0 || peak < base then
    invalid_arg "Trace.flash_crowd: need 0 <= base <= peak";
  if at < 0 || ramp <= 0 || decay <= 0 then
    invalid_arg "Trace.flash_crowd: at must be >= 0, ramp and decay positive";
  let excess = float_of_int (peak - base) in
  let retention = Float.exp (-1. /. float_of_int decay) in
  generate ?tick_seconds ?noise ~ticks ~seed (fun k ->
      if k < at then base
      else if k < at + ramp then
        base
        + int_of_float
            (Float.round (excess *. float_of_int (k - at) /. float_of_int ramp))
      else
        let age = k - (at + ramp) in
        base
        + int_of_float
            (Float.round (excess *. (retention ** float_of_int age))))

(* --- text format --- *)

let to_string t =
  let buf = Buffer.create (64 + (8 * Array.length t.demand)) in
  Buffer.add_string buf "trace version 1\n";
  Buffer.add_string buf (Printf.sprintf "tick-seconds %.17g\n" t.tick_seconds);
  Buffer.add_string buf "demand";
  Array.iter (fun d -> Buffer.add_string buf (Printf.sprintf " %d" d)) t.demand;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let fail fmt = Printf.ksprintf failwith fmt

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let tokens line = String.split_on_char ' ' line |> List.filter (( <> ) "") in
  match lines with
  | [] -> fail "trace: empty input"
  | header :: rest -> (
    (match tokens header with
    | [ "trace"; "version"; "1" ] -> ()
    | [ "trace"; "version"; v ] -> fail "trace: unsupported version %s" v
    | _ -> fail "trace: expected header 'trace version 1'");
    let tick_seconds = ref None and demand = ref None in
    List.iter
      (fun line ->
        match tokens line with
        | "tick-seconds" :: rest -> (
          match rest with
          | [ v ] -> (
            match float_of_string_opt v with
            | Some f when Float.is_finite f && f > 0. -> tick_seconds := Some f
            | _ -> fail "trace: bad tick-seconds %S" v)
          | _ -> fail "trace: tick-seconds takes one value")
        | "demand" :: values ->
          demand :=
            Some
              (List.map
                 (fun v ->
                   match int_of_string_opt v with
                   | Some d when d >= 0 -> d
                   | Some _ -> fail "trace: negative demand %s" v
                   | None -> fail "trace: bad demand value %S" v)
                 values
              |> Array.of_list)
        | key :: _ -> fail "trace: unknown key %S" key
        | [] -> ())
      rest;
    match (!tick_seconds, !demand) with
    | Some tick_seconds, Some demand -> create ~tick_seconds ~demand
    | None, _ -> fail "trace: missing tick-seconds"
    | _, None -> fail "trace: missing demand")

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (In_channel.input_all ic))

module For_testing = struct
  let create = create
  let of_string = of_string
end
