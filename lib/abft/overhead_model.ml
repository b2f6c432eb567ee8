type params = { n : int; b : int; k : int }

let f = float_of_int
let cholesky_flops { n; _ } = f n ** 3. /. 3.
let encode_flops { n; _ } = 2. *. (f n ** 2.)

let update_flops { n; b; _ } =
  (4. *. (f n ** 2.)) +. (2. *. (f n ** 3.) /. (3. *. f b))

let update_relative { n; b; _ } = (12. /. f n) +. (2. /. f b)
let recalc_flops_online { n; _ } = 4. *. (f n ** 2.)
let recalc_relative_online { n; _ } = 12. /. f n

let recalc_flops_enhanced { n; b; k } =
  (2. *. (f n ** 2.))
  +. (2. *. (f n ** 2.) /. f k)
  +. (2. *. (f n ** 3.) /. (3. *. f b *. f k))

let recalc_relative_enhanced { n; b; k } =
  (((6. *. f k) +. 6.) /. (f n *. f k)) +. (2. /. (f b *. f k))

let space_bytes { n; b; _ } = 8. *. 2. *. (f n ** 2.) /. f b
let space_relative { b; _ } = 2. /. f b
let overall_relative_online { n; b; _ } = (30. /. f n) +. (2. /. f b)

let overall_relative_enhanced { n; b; k } =
  (((24. *. f k) +. 6.) /. (f n *. f k))
  +. (((2. *. f k) +. 2.) /. (f b *. f k))

let asymptote_online { b; _ } = 2. /. f b
let asymptote_enhanced { b; k; _ } = ((2. *. f k) +. 2.) /. (f b *. f k)
let transfer_words_initial { n; b; _ } = 2. *. (f n ** 2.) /. f b
let transfer_words_update { n; _ } = f n ** 2. /. 2.

let transfer_words_verify_enhanced { n; b; k } =
  f n ** 3. /. (3. *. f k *. (f b ** 2.))
