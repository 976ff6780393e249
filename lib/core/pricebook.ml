type tier = {
  tier_name : string;
  percent : int;
}

type book = {
  book_name : string;
  region : string option;
  prices : int array;
  tiers : tier list;
}

type sourcing = {
  src_book : string;
  src_region : string option;
  src_tier : string;
  src_cost : int;
}

type t = book array

let ceil_div a b = (a + b - 1) / b

let on_demand = { tier_name = "on-demand"; percent = 100 }

let validate_book b =
  if String.trim b.book_name = "" then
    invalid_arg "Pricebook.create: empty book name";
  Array.iter
    (fun p ->
      if p <= 0 then
        invalid_arg
          (Printf.sprintf "Pricebook.create: book %S has a non-positive price"
             b.book_name))
    b.prices;
  List.iter
    (fun t ->
      if t.percent <= 0 then
        invalid_arg
          (Printf.sprintf
             "Pricebook.create: tier %S of book %S has a non-positive percent"
             t.tier_name b.book_name))
    b.tiers

let create books =
  let books = Array.of_list books in
  if Array.length books = 0 then invalid_arg "Pricebook.create: no books";
  let n = Array.length books.(0).prices in
  if n = 0 then invalid_arg "Pricebook.create: empty price vector";
  Array.iter
    (fun b ->
      validate_book b;
      if Array.length b.prices <> n then
        invalid_arg
          (Printf.sprintf
             "Pricebook.create: book %S prices %d types, expected %d"
             b.book_name (Array.length b.prices) n))
    books;
  Array.map (fun b -> { b with prices = Array.copy b.prices }) books

let of_platform ?(name = "on-demand") platform =
  create
    [
      {
        book_name = name;
        region = None;
        prices =
          Array.init (Platform.num_types platform) (Platform.cost platform);
        tiers = [];
      };
    ]

let num_books t = Array.length t
let num_types t = Array.length t.(0).prices
let books t = Array.to_list t

(* A tier price never drops below 1: Platform costs are strictly
   positive, so a 99%-off spot tier still rents at a unit price. *)
let tier_price base tier = max 1 (ceil_div (base * tier.percent) 100)

(* The cheapest (book, tier) for one machine type, scanning books in
   declaration order and, within a book, on-demand before the discount
   tiers — so ties resolve deterministically towards the first, least
   surprising source. *)
let sourcing t q =
  if q < 0 || q >= num_types t then invalid_arg "Pricebook.sourcing: bad type";
  let best = ref None in
  Array.iter
    (fun b ->
      List.iter
        (fun tier ->
          let c = tier_price b.prices.(q) tier in
          match !best with
          | Some s when s.src_cost <= c -> ()
          | _ ->
            best :=
              Some
                {
                  src_book = b.book_name;
                  src_region = b.region;
                  src_tier = tier.tier_name;
                  src_cost = c;
                })
        (on_demand :: b.tiers))
    t;
  Option.get !best

let effective_cost t q = (sourcing t q).src_cost

let apply t platform =
  if num_types t <> Platform.num_types platform then
    invalid_arg
      (Printf.sprintf
         "Pricebook.apply: pricebook covers %d types, platform has %d"
         (num_types t)
         (Platform.num_types platform));
  Platform.create
    (Array.init (num_types t) (fun q ->
         {
           Platform.cost = effective_cost t q;
           throughput = Platform.throughput platform q;
         }))

(* --- text format --- *)

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "pricebook version 1\n";
  Array.iter
    (fun b ->
      Buffer.add_string buf (Printf.sprintf "book %s\n" b.book_name);
      (match b.region with
       | Some r -> Buffer.add_string buf (Printf.sprintf "  region %s\n" r)
       | None -> ());
      Array.iteri
        (fun q p -> Buffer.add_string buf (Printf.sprintf "  price %d %d\n" q p))
        b.prices;
      List.iter
        (fun tier ->
          Buffer.add_string buf
            (Printf.sprintf "  tier %s %d\n" tier.tier_name tier.percent))
        b.tiers)
    t;
  Buffer.contents buf

type partial_book = {
  pb_name : string;
  mutable pb_region : string option;
  mutable pb_prices : (int * int) list;  (* (type, price), reversed *)
  mutable pb_tiers : tier list;  (* reversed *)
}

let of_string text =
  let w = Words.create ~what:"Pricebook" ~fold_case:false text in
  let books = ref [] in
  let current = ref None in
  let close () =
    match !current with
    | None -> ()
    | Some pb ->
      (* Type indices are distinct and non-negative, so the book has
         no gap exactly when the largest index + 1 is the number of
         price lines; check that before sizing the array by it. *)
      let n =
        List.fold_left (fun acc (q, _) -> max acc (q + 1)) 0 pb.pb_prices
      in
      let lines = List.length pb.pb_prices in
      if n = 0 || n <> lines then begin
        let seen = Array.make (lines + 1) false in
        List.iter (fun (q, _) -> if q <= lines then seen.(q) <- true)
          pb.pb_prices;
        let k = ref 0 in
        while seen.(!k) do
          incr k
        done;
        failwith
          (Printf.sprintf "Pricebook: book %S: missing price for type %d"
             pb.pb_name !k)
      end;
      let prices = Array.make n 0 in
      List.iter (fun (q, p) -> prices.(q) <- p) pb.pb_prices;
      books :=
        {
          book_name = pb.pb_name;
          region = pb.pb_region;
          prices;
          tiers = List.rev pb.pb_tiers;
        }
        :: !books;
      current := None
  in
  let open_book what =
    match !current with
    | Some pb -> pb
    | None -> Words.fail w (Printf.sprintf "'%s' outside a book block" what)
  in
  (* Keywords ignore case; names keep theirs, and the [version] of the
     header line is matched exactly. *)
  while Words.next_line w do
    let n = Words.count w in
    if n = 0 then ()
    else if n = 3 && Words.is_keyword w 0 "pricebook" && Words.is w 1 "version"
    then begin
      let v = Words.int w 2 in
      if v <> 1 then
        Words.fail w
          (Printf.sprintf "unsupported pricebook version %d (supported: 1)" v)
    end
    else if Words.is_keyword w 0 "book" then begin
      if n <> 2 then Words.fail w "'book' takes exactly one name";
      close ();
      current :=
        Some
          { pb_name = Words.word w 1; pb_region = None; pb_prices = [];
            pb_tiers = [] }
    end
    else if n = 2 && Words.is_keyword w 0 "region" then
      (open_book "region").pb_region <- Some (Words.word w 1)
    else if n = 3 && Words.is_keyword w 0 "price" then begin
      let pb = open_book "price" in
      let q = Words.int w 1 in
      let p = Words.int w 2 in
      if q < 0 then Words.fail w "negative type index";
      if List.mem_assoc q pb.pb_prices then
        Words.fail w (Printf.sprintf "duplicate price for type %d" q);
      pb.pb_prices <- (q, p) :: pb.pb_prices
    end
    else if n = 3 && Words.is_keyword w 0 "tier" then begin
      let pb = open_book "tier" in
      pb.pb_tiers <-
        { tier_name = Words.word w 1; percent = Words.int w 2 } :: pb.pb_tiers
    end
    else Words.fail w (Printf.sprintf "unknown directive %S" (Words.word w 0))
  done;
  close ();
  if !books = [] then failwith "Pricebook: no books declared";
  create (List.rev !books)

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_string text

let save path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iter
    (fun b ->
      Format.fprintf fmt "book %s%s: prices [%s]%s@," b.book_name
        (match b.region with Some r -> " (" ^ r ^ ")" | None -> "")
        (String.concat ";"
           (Array.to_list (Array.map string_of_int b.prices)))
        (match b.tiers with
         | [] -> ""
         | ts ->
           " tiers "
           ^ String.concat ","
               (List.map
                  (fun t -> Printf.sprintf "%s@%d%%" t.tier_name t.percent)
                  ts)))
    t;
  Format.fprintf fmt "@]"
