package repro.core

import org.apache.spark.sql.catalyst.expressions.{Alias, And, Attribute, EqualTo, Expression, SubqueryExpression}
import org.apache.spark.sql.catalyst.plans.{Cross, Inner, LeftAnti, LeftOuter, LeftSemi, RightOuter}
import org.apache.spark.sql.catalyst.plans.logical._

/** Lifts a query plan over processing-time ticks (paper Section 3.1: a TVR
  * query applies pointwise, so the result at tick `t` is the classic query
  * over the input snapshots at `t`).
  *
  * The rewrite threads a tick attribute through the analyzed plan:
  *   - each snapshot view of a registered TVR becomes its lifted leaf
  *     ([[repro.tvr.Tvr.liftedSnapshots]]), keeping the view's data
  *     attributes (same exprIds, same alignment metadata);
  *   - Project, Filter, SubqueryAlias/View, Generate, Distinct, Union and
  *     Sort forward it;
  *   - every Aggregate groups by it;
  *   - inner, cross, left/right outer, semi and anti joins match on it.
  *
  * One execution of the lifted plan then yields every snapshot of the
  * result at once. Any other shape is reported as unliftable, with the
  * reason, and is evaluated per tick instead.
  */
object Lift {

  /** Rewrite `plan`. `leaf(name)` is the analyzed lifted plan of the TVR
    * registered as `name` (its data columns, then the tick), or `None`
    * when no TVR has that name. On success the result outputs `plan`'s
    * columns followed by the tick.
    */
  def apply(plan: LogicalPlan, leaf: String => Option[LogicalPlan]): Either[String, LogicalPlan] =
    new Lifter(leaf).lift(plan).map { case (lifted, tick) => Project(plan.output :+ tick, lifted) }

  private final class Lifter(leaf: String => Option[LogicalPlan]) {

    /** The lifted node and its tick attribute. */
    type Lifted = Either[String, (LogicalPlan, Attribute)]

    private def through(child: LogicalPlan)(rebuild: (LogicalPlan, Attribute) => LogicalPlan): Lifted =
      lift(child).map { case (c, tick) => (rebuild(c, tick), tick) }

    def lift(node: LogicalPlan): Lifted =
      if (node.expressions.exists(SubqueryExpression.hasSubquery)) Left("subquery expression")
      else node match {
        case v: View =>
          leaf(v.desc.identifier.table) match {
            case Some(l) => leafOf(v, l)
            case None    => through(v.child)((c, _) => v.copy(child = c))
          }
        case s: SubqueryAlias => through(s.child)((c, _) => s.copy(child = c))
        case p: Project =>
          through(p.child)((c, tick) => p.copy(projectList = p.projectList :+ tick, child = c))
        case f: Filter => through(f.child)((c, _) => f.copy(child = c))
        case g: Generate =>
          // The tick may sit anywhere in the lifted child's output, so keep
          // every child column rather than shifting the unrequired indices.
          through(g.child)((c, _) => g.copy(unrequiredChildIndex = Nil, child = c))
        case d: Distinct => through(d.child)((c, _) => d.copy(child = c))
        case s: Sort     => through(s.child)((c, _) => s.copy(child = c))
        case a: Aggregate if a.groupingExpressions.isEmpty =>
          Left("global aggregate (a tick with no input would lose its row)")
        case a: Aggregate =>
          through(a.child)((c, tick) => a.copy(
            groupingExpressions = a.groupingExpressions :+ tick,
            aggregateExpressions = a.aggregateExpressions :+ tick,
            child = c))
        case j: Join => join(j)
        case u: Union =>
          // Union is positional: put each child's tick last.
          u.children
            .foldRight[Either[String, List[LogicalPlan]]](Right(Nil)) { (c, rest) =>
              for (lc <- lift(c); cs <- rest) yield Project(c.output :+ lc._2, lc._1) :: cs
            }
            .map { cs =>
              val lifted = u.withNewChildren(cs)
              (lifted, lifted.output.last)
            }
        case _: GlobalLimit | _: LocalLimit => Left("LIMIT")
        case _: Window                      => Left("window function")
        case other                          => Left(s"unsupported operator ${other.nodeName}")
      }

    /** The view's data attributes re-bound to the lifted leaf's columns. */
    private def leafOf(v: View, l: LogicalPlan): Lifted = {
      val tick = l.output.last
      val data = v.output.zip(l.output).map { case (a, c) =>
        Alias(c, a.name)(exprId = a.exprId, qualifier = a.qualifier, explicitMetadata = Some(a.metadata))
      }
      Right((Project(data :+ tick, l), tick))
    }

    private def join(j: Join): Lifted = j.joinType match {
      case Inner | Cross | LeftOuter | RightOuter | LeftSemi | LeftAnti =>
        for (left <- lift(j.left); right <- lift(j.right)) yield {
          val (l, lt) = left
          val (r, rt) = right
          val sameTick: Expression = EqualTo(lt, rt)
          val lifted = j.copy(left = l, right = r, condition = Some(j.condition.fold(sameTick)(And(sameTick, _))))
          (lifted, if (j.joinType == RightOuter) rt else lt)
        }
      case other => Left(s"${other.sql} join")
    }
  }
}
