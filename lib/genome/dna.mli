(** DNA sequences and synthetic genome generation.

    Section 3.2 tests the genome accelerator on "artificial DNA sequences
    that preserve the statistical and entropic complexity of the base pairs
    in biological genomes"; {!markov} generates exactly that, with an
    order-1 transition profile exhibiting the classic CpG depletion. *)

type base = A | C | G | T

type t = base array

val of_string : string -> t
val to_string : t -> string
val length : t -> int

val random : Qca_util.Rng.t -> int -> t
(** Uniform iid bases. *)

val markov : Qca_util.Rng.t -> int -> t
(** Order-1 Markov chain with a biologically-flavoured transition matrix
    (GC content ~41%, CpG dinucleotide depletion). *)

val subsequence : t -> pos:int -> len:int -> t

val mutate : Qca_util.Rng.t -> rate:float -> t -> t
(** Point substitutions at the given per-base rate — sequencing read
    errors ("inherent read errors in the sequence", section 3.2). *)

val hamming : t -> t -> int
(** Distance between equal-length sequences. *)

val gc_content : t -> float

val shannon_entropy : k:int -> t -> float
(** Entropy (bits) of the k-mer distribution; used to verify the synthetic
    genome preserves entropic complexity. *)

val encode_bits : t -> int
(** Pack a short sequence (<= 31 bases) into an int, 2 bits per base,
    base 0 in the least-significant bits. *)

val decode_bits : len:int -> int -> t
