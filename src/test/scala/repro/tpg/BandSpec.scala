package repro.tpg

import org.apache.spark.sql.DataFrame
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.SparkSpec

/** Banded relations: normalization, expansion, and — crucially — exactness
  * of band composition against point-set composition (the property that
  * makes the interval evaluator correct for the whole language).
  */
class BandSpec extends SparkSpec {

  import spark.implicits._

  private type BandT = (Long, Int, Int, Long, Int, Int, Int, Int)

  private def df(rows: Seq[BandT]): DataFrame =
    rows.toDF(Band.cols: _*)

  private def bandPoints(b: BandT): Set[(Long, Int, Long, Int)] = {
    val (o1, l1, h1, o2, l2, h2, dl, dh) = b
    (for {
      t1 <- l1 to h1
      t2 <- l2 to h2
      if t2 - t1 >= dl && t2 - t1 <= dh
    } yield (o1, t1, o2, t2)).toSet
  }

  private def collect4(d: DataFrame): Set[(Long, Int, Long, Int)] =
    d.collect().map(r => (r.getLong(0), r.getInt(1), r.getLong(2), r.getInt(3))).toSet

  private def collect8(d: DataFrame): Seq[BandT] =
    d.collect().toSeq.map(r => (r.getLong(0), r.getInt(1), r.getInt(2), r.getLong(3),
                                r.getInt(4), r.getInt(5), r.getInt(6), r.getInt(7)))

  private def sample[A](g: Gen[A], n: Int, seed: Long): Seq[A] =
    (0 until n).map(i => g.pureApply(Gen.Parameters.default, Seed(seed + i)))

  // ---- normalize ----------------------------------------------------------

  test("normalize tightens the delta to the interval difference") {
    val out = Band.normalize(df(Seq((1L, 0, 10, 2L, 0, 10, 5, 5))))
    val r = out.collect().head
    assert((r.getInt(1), r.getInt(2), r.getInt(4), r.getInt(5)) == (0, 5, 5, 10))
  }

  test("normalize drops empty bands") {
    assert(Band.normalize(df(Seq((1L, 5, 3, 2L, 0, 10, 0, 0)))).count() == 0)
    assert(Band.normalize(df(Seq((1L, 0, 2, 2L, 8, 10, 0, 0)))).count() == 0) // delta infeasible
  }

  test("normalize preserves the point set (60 random bands)") {
    val gen: Gen[BandT] = for {
      l1 <- Gen.choose(0, 8); h1 <- Gen.choose(l1, 8)
      l2 <- Gen.choose(0, 8); h2 <- Gen.choose(l2, 8)
      dl <- Gen.choose(-8, 8); dh <- Gen.choose(dl, 8)
    } yield (1L, l1, h1, 2L, l2, h2, dl, dh)
    val bands = sample(gen, 60, 10L).zipWithIndex.map { case (b, i) =>
      (i.toLong * 10 + 1, b._2, b._3, i.toLong * 10 + 2, b._5, b._6, b._7, b._8)
    }
    val got = collect4(Band.toPoints(Band.normalize(df(bands))))
    val exp = bands.flatMap(bandPoints).toSet
    assert(got == exp)
  }

  // ---- toPoints / fromIntervals ------------------------------------------

  test("toPoints expands a diagonal band") {
    val got = collect4(Band.toPoints(df(Seq((1L, 1, 3, 1L, 1, 3, 0, 0)))))
    assert(got == Set((1L, 1, 1L, 1), (1L, 2, 1L, 2), (1L, 3, 1L, 3)))
  }

  test("toPoints applies the delta constraint") {
    val got = collect4(Band.toPoints(df(Seq((1L, 1, 2, 2L, 1, 3, 1, 1)))))
    assert(got == Set((1L, 1, 2L, 2), (1L, 2, 2L, 3)))
  }

  test("fromIntervals builds identity bands") {
    val got = collect4(Band.toPoints(Band.fromIntervals(Seq((5L, 2, 3)).toDF("id", "ts", "te"))))
    assert(got == Set((5L, 2, 5L, 2), (5L, 3, 5L, 3)))
  }

  test("startsOf projects exactly the feasible start points") {
    // t1 ∈ [0,5] but delta 3 with t2 ∈ [4,6] restricts t1 to [1,3]
    val iv = Band.startsOf(Band.normalize(df(Seq((1L, 0, 5, 2L, 4, 6, 3, 3)))))
    assert(iv.collect().map(r => (r.getLong(0), r.getInt(1), r.getInt(2))).toSet ==
           Set((1L, 1, 3)))
  }

  // ---- compose ------------------------------------------------------------

  test("compose chains diagonal bands through the shared object") {
    val a = df(Seq((1L, 0, 5, 2L, 0, 5, 0, 0)))
    val b = df(Seq((2L, 3, 8, 3L, 3, 8, 0, 0)))
    val got = collect4(Band.toPoints(Band.compose(a, b)))
    assert(got == (3 to 5).map(t => (1L, t, 3L, t)).toSet)
  }

  test("compose adds deltas") {
    val a = df(Seq((1L, 0, 8, 1L, 0, 8, 1, 1)))
    val got = collect4(Band.toPoints(Band.compose(a, a)))
    assert(got == (0 to 6).map(t => (1L, t, 1L, t + 2)).toSet)
  }

  test("compose with no middle overlap is empty") {
    val a = df(Seq((1L, 0, 2, 2L, 0, 2, 0, 0)))
    val b = df(Seq((2L, 5, 8, 3L, 5, 8, 0, 0)))
    assert(Band.compose(a, b).count() == 0)
  }

  test("compose exactness property: equals point-set composition (40 random cases)") {
    val gen: Gen[(BandT, BandT)] = for {
      al1 <- Gen.choose(0, 6); ah1 <- Gen.choose(al1, 6)
      al2 <- Gen.choose(0, 6); ah2 <- Gen.choose(al2, 6)
      adl <- Gen.choose(-6, 6); adh <- Gen.choose(adl, 6)
      bl1 <- Gen.choose(0, 6); bh1 <- Gen.choose(bl1, 6)
      bl2 <- Gen.choose(0, 6); bh2 <- Gen.choose(bl2, 6)
      bdl <- Gen.choose(-6, 6); bdh <- Gen.choose(bdl, 6)
    } yield ((0L, al1, ah1, 0L, al2, ah2, adl, adh), (0L, bl1, bh1, 0L, bl2, bh2, bdl, bdh))
    val cases = sample(gen, 40, 99L)
    // encode the case id into the object ids so one compose covers all cases
    val aBands = cases.zipWithIndex.map { case ((a, _), i) =>
      (i.toLong * 10 + 1, a._2, a._3, i.toLong * 10 + 2, a._5, a._6, a._7, a._8) }
    val bBands = cases.zipWithIndex.map { case ((_, b), i) =>
      (i.toLong * 10 + 2, b._2, b._3, i.toLong * 10 + 3, b._5, b._6, b._7, b._8) }
    val got = collect4(Band.toPoints(Band.compose(df(aBands), df(bBands))))
    val exp = cases.indices.flatMap { i =>
      val ap = bandPoints(aBands(i))
      val bp = bandPoints(bBands(i))
      repro.TestUtil.composeSets(ap, bp)
    }.toSet
    assert(got == exp)
  }

  test("compose of normalized bands is normalized: nonempty, tight, no filter needed (40 random cases)") {
    // Each case's a and b share a point (t1,t2) / (t2,t3), so they compose.
    def around(t1: Int, t2: Int): Gen[(Int, Int, Int, Int, Int, Int)] = for {
      l1 <- Gen.choose(0, t1); h1 <- Gen.choose(t1, 6)
      l2 <- Gen.choose(0, t2); h2 <- Gen.choose(t2, 6)
      dl <- Gen.choose(-6, t2 - t1); dh <- Gen.choose(t2 - t1, 6)
    } yield (l1, h1, l2, h2, dl, dh)
    val gen = for {
      t1 <- Gen.choose(0, 6); t2 <- Gen.choose(0, 6); t3 <- Gen.choose(0, 6)
      a <- around(t1, t2); b <- around(t2, t3)
    } yield (a, b)
    val cases = sample(gen, 40, 7L).zipWithIndex
    val a = Band.normalize(df(cases.map { case ((x, _), i) =>
      (i.toLong * 10 + 1, x._1, x._2, i.toLong * 10 + 2, x._3, x._4, x._5, x._6) }))
    val b = Band.normalize(df(cases.map { case ((_, y), i) =>
      (i.toLong * 10 + 2, y._1, y._2, i.toLong * 10 + 3, y._3, y._4, y._5, y._6) }))
    val got = collect8(Band.compose(a, b))
    assert(got.size == cases.size)
    got.foreach { case c @ (_, l1, h1, _, l2, h2, dl, dh) =>
      assert(l1 <= h1 && l2 <= h2 && dl <= dh, s"empty band $c")
    }
    assert(collect8(Band.normalize(df(got))).sorted == got.sorted)
  }

  test("union keeps both bands' points") {
    val a = df(Seq((1L, 0, 1, 1L, 0, 1, 0, 0)))
    val b = df(Seq((1L, 3, 4, 1L, 3, 4, 0, 0)))
    val got = collect4(Band.toPoints(Band.union(a, b)))
    assert(got == Set((1L, 0, 1L, 0), (1L, 1, 1L, 1), (1L, 3, 1L, 3), (1L, 4, 1L, 4)))
  }

  test("identity covers all objects across the domain") {
    val full = Seq((1L, 0, 1), (2L, 0, 1)).toDF("id", "ts", "te")
    val got = collect4(Band.toPoints(Band.fromIntervals(full)))
    assert(got == Set((1L, 0, 1L, 0), (1L, 1, 1L, 1), (2L, 0, 2L, 0), (2L, 1, 2L, 1)))
  }
}
