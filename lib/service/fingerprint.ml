type t = {
  digest : string;
  encoding : string;
}

let of_instance inst =
  {
    digest = Rentcost.Instance.fingerprint inst;
    encoding = Rentcost.Instance.canonical_encoding inst;
  }


let digest t = t.digest

let encoding t = t.encoding

let equal a b = String.equal a.encoding b.encoding

let short t =
  if String.length t.digest <= 12 then t.digest else String.sub t.digest 0 12

