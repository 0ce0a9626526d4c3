"""The characteristic-2 real-locus criterion: build the divisor presentation
with squared sphere-class weights, reduce to plain weights, lift back by
Z_j -> Z_j^2, and check that the squaring kernel, the kernel of the lift after
the reduction, sits inside the reduction kernel.  Containment plus minimal
Chern number >= 2 certifies that the real Lagrangian split-generates the
weight-0 summand of the Fukaya category."""

from floergen import corpus, kernel_containment_check, real_gen_data, real_generation_report

for name in ("CP2", "CP3", "CP1xCP1"):
    P = corpus()[name]
    data = real_gen_data(P)
    print(f"{name}: dim QH_R = {data.qh_r.dim} = 2^{P.num_facets - P.n} * "
          f"{data.qh.dim} = 2^(N-n) * dim QH")
    ker_f_dim, ker_pi_dim, contained = kernel_containment_check(data.pi, data.lift)
    print(f"  ker(reduction) dim {ker_pi_dim}, ker(squaring) dim {ker_f_dim}, "
          f"contained: {contained}")
    rep = real_generation_report(P)
    print(f"  minimal Chern {rep.minimal_chern}: "
          f"{rep.summands[0].verdict} -- {rep.summands[0].statement}")
    print()
