package repro.core

import repro.cluster.GammaAlg
import repro.cluster.Weighted.Pt
import repro.join.LocalJoinIndex
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Algorithm 1 — RelClusteringSlow: the deterministic coreset construction.
  *
  * For every center x_i in X it walks the exponential grid around x_i; every
  * cell passing condition (3) is counted *exactly*, excluding the region G of
  * cells processed earlier, by refining the cell against the overlapping
  * G-boxes (the arrangement Arr'(G) restricted to the cell) and issuing one
  * CountRect per uncovered sub-box. A representative tuple (SampleRect, z=1)
  * is stored with weight K_cell.
  *
  * Runtime is Omega(|X|^(d_u+1) N) as in Theorem 3.5 — the paper's point is
  * precisely that this is slow; we run it at small N and measure it.
  */
object RelClusteringSlow {

  def run(index: LocalJoinIndex, dims: Array[Int], x: Array[Pt],
          alpha: Double, r: Double, k: Int,
          gamma: GammaAlg, conf: CoreConf, rng: Random): ClusterOut = {
    require(index.n > 0, "empty join")
    val grids = SubSpace.grids(gamma.objective, x, alpha, r, index.n, conf.cellsPerSide)

    val g = ArrayBuffer.empty[Box] // processed cells that contributed tuples
    val corePts = ArrayBuffer.empty[Pt]
    val coreW = ArrayBuffer.empty[Double]

    // A cell with CountRect = 0 contributes nothing and excludes nothing —
    // the paper adds every condition-(3) cell to G, but only cells whose
    // *counted* tuples must not be recounted need to be in G (tuples of a
    // K=0 cell are already covered by earlier G-boxes), so we keep |G| = |C|
    // and avoid a quadratic blow-up.
    SubSpace.foreachCell(index, dims, x, grids) { (box, flo, fhi) =>
      if (index.countBox(flo, fhi) > 0) {
        val (cnt, rep) = countMinusG(index, dims, box, g, rng)
        if (cnt > 0) {
          corePts += rep.get
          coreW += cnt
          g += box
        }
      }
    }

    // r_u = v_S(C)/(1-eps') (Alg 1 line 22 / Appendix A.2)
    SubSpace.finish(corePts.toArray, coreW.toArray, k, gamma, rng, 1.0 / (1 - conf.epsPrime))
  }

  /** K_cell = |q_u(D) ∩ (cell \ G)| plus one representative from that set.
    * Refines `cell` against the G-boxes overlapping it: the per-dimension
    * breakpoints of those boxes partition the cell into sub-boxes, each
    * either fully covered by some G-box (skip) or disjoint from G (count).
    */
  private def countMinusG(index: LocalJoinIndex, dims: Array[Int], cell: Box,
                          g: ArrayBuffer[Box], rng: Random): (Double, Option[Pt]) = {
    val overlapping = g.filter(_.intersects(cell))
    if (overlapping.exists(_.covers(cell))) return (0.0, None)
    val d = cell.dim
    // breakpoints per dimension, clipped to the cell
    val cuts: Array[Array[Double]] = Array.tabulate(d) { i =>
      val pts = overlapping.iterator
        .flatMap(b => Iterator(b.lo(i), b.hi(i)))
        .filter(v => v > cell.lo(i) && v < cell.hi(i))
        .toArray
      (Array(cell.lo(i)) ++ pts.distinct.sorted ++ Array(cell.hi(i)))
    }
    var total = 0.0
    var rep: Option[Pt] = None
    def rec(dim: Int, lo: Array[Double], hi: Array[Double]): Unit = {
      if (dim == d) {
        val sub = Box(lo.clone(), hi.clone())
        val mid = Array.tabulate(d)(i => (lo(i) + hi(i)) / 2)
        val covered = overlapping.exists(_.contains(mid))
        if (!covered) {
          val (flo, fhi) = SubSpace.lift(sub, dims, index.dim)
          val c = index.countBox(flo, fhi)
          if (c > 0) {
            total += c
            if (rep.isEmpty) {
              val s = index.sampleBox(flo, fhi, 1, rng)
              rep = Some(SubSpace.project(s(0), dims))
            }
          }
        }
      } else {
        var i = 0
        while (i < cuts(dim).length - 1) {
          lo(dim) = cuts(dim)(i); hi(dim) = cuts(dim)(i + 1)
          rec(dim + 1, lo, hi)
          i += 1
        }
      }
    }
    rec(0, new Array[Double](d), new Array[Double](d))
    (total, rep)
  }
}
