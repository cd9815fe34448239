package repro.bench

import repro.SparkSpec
import repro.data.ContactTracing

/** Reproduces paper **Table I**: the contact-tracing graphs used in the
  * experiments, at the paper's scale points.
  *
  * Default scales G1–G6 (override with `REPRO_SCALES=G1,...,G10`). The
  * printed report puts the paper's counts next to ours; EXPERIMENTS.md
  * records a checked-in run.
  */
class TableIBench extends SparkSpec {

  private val paper = Map(
    "G1" -> (1000, 12000L, 3500L, 14000L),
    "G2" -> (2000, 30000L, 7000L, 35000L),
    "G3" -> (4000, 84000L, 14000L, 94000L),
    "G4" -> (6000, 158000L, 20000L, 180000L),
    "G5" -> (8000, 253000L, 28000L, 282000L),
    "G6" -> (10000, 371000L, 34000L, 413000L),
    "G7" -> (25000, 2046000L, 85000L, 2215000L),
    "G8" -> (50000, 7370000L, 170000L, 8048000L),
    "G9" -> (75000, 15717000L, 256000L, 17554000L),
    "G10" -> (100000, 28996000L, 340000L, 32255000L))

  test("Table I: graph statistics, paper vs measured") {
    val scales = sys.env.getOrElse("REPRO_SCALES", "G1,G2,G3,G4,G5,G6").split(",").toSeq
    println("== Table I - temporal property graphs (paper vs measured) ==")
    println(f"${"scale"}%-5s ${"persons"}%9s | ${"edges(p)"}%11s ${"edges"}%11s | " +
            f"${"tmpN(p)"}%9s ${"tmpN"}%9s | ${"tmpE(p)"}%11s ${"tmpE"}%11s")
    val rows = scales.map { s =>
      val (persons, pe, ptn, pte) = paper(s)
      val g = ContactTracing.generateScale(spark, s)
      val (n, e, tn, te) = ContactTracing.stats(g)
      println(f"$s%-5s $persons%,9d | $pe%,11d $e%,11d | $ptn%,9d $tn%,9d | $pte%,11d $te%,11d")
      assert(n == persons + 100, s"$s: nodes must be persons + 100 rooms")
      assert(tn >= n, s"$s: temporal nodes cannot be fewer than nodes")
      assert(te >= e, s"$s: temporal edges cannot be fewer than edges")
      // within a factor ~2.5 of the paper's calibration target
      assert(e > pe / 3 && e < pe * 3, s"$s: edges $e vs paper $pe out of range")
      (s, persons, e)
    }
    // shape: edges grow superlinearly in persons, as in the paper
    rows.sliding(2).foreach {
      case Seq((_, p1, e1), (_, p2, e2)) =>
        assert(e2.toDouble / e1 > p2.toDouble / p1,
               s"superlinear edge growth violated between $p1 and $p2")
      case _ =>
    }
  }
}
