(* Array-backed binary min-heap with the classic sift-up / sift-down
   operations; amortized O(log n) push/pop. *)

module Make (Ord : sig
  type t

  val compare : t -> t -> int
end) =
struct
  type elt = Ord.t

  type t = { mutable data : elt array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let is_empty h = h.len = 0

  let grow h x =
    let cap = Array.length h.data in
    if h.len = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let ndata = Array.make ncap x in
      Array.blit h.data 0 ndata 0 h.len;
      h.data <- ndata
    end

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if Ord.compare h.data.(i) h.data.(parent) < 0 then begin
        let tmp = h.data.(i) in
        h.data.(i) <- h.data.(parent);
        h.data.(parent) <- tmp;
        sift_up h parent
      end
    end

  let push h x =
    grow h x;
    h.data.(h.len) <- x;
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.len && Ord.compare h.data.(l) h.data.(!smallest) < 0 then smallest := l;
    if r < h.len && Ord.compare h.data.(r) h.data.(!smallest) < 0 then smallest := r;
    if !smallest <> i then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(!smallest);
      h.data.(!smallest) <- tmp;
      sift_down h !smallest
    end

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.data.(0) <- h.data.(h.len);
        sift_down h 0
      end;
      Some top
    end

  let fold f acc h =
    let acc = ref acc in
    for i = 0 to h.len - 1 do
      acc := f !acc h.data.(i)
    done;
    !acc

  module For_testing = struct
    let peek h = if h.len = 0 then None else Some h.data.(0)
    let clear h = h.len <- 0
  end
end
