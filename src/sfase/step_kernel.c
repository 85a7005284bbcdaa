/* One unit-CFL step of the stochastic Maxwell-Bloch system, stages (1)-(5)
 * of sfase.solver, for one realization.
 *
 * Every node's update reads only the input state at that node and its
 * upstream neighbours, so the whole step is one pass over the nodes.  Each
 * expression keeps the operation order of the numpy formulation it replaces
 * (tests/reference_step.py), including numpy's complex promotion: a real or
 * imaginary scalar times a complex value is a full complex product with a
 * zero part, so an inf or NaN spreads the way it does in numpy.  Built
 * with -ffp-contract=off and no -ffast-math, the results then differ from
 * numpy's only where libm's exp differs from numpy's vectorised exp.
 *
 * Arrays are C-contiguous float64; a complex array is interleaved (re, im)
 * pairs, rows forward (+) then backward (-).  Shapes, in doubles:
 * pop (3, n), coh and omega (2, 2n), jp (n), z (4, n) or NULL for no noise.
 */
#include <math.h>
#include <string.h>

/* numpy's minimum and maximum: a NaN in either argument is the result */
static double np_minimum(double a, double b) { return (a <= b || isnan(a)) ? a : b; }
static double np_maximum(double a, double b) { return (a >= b || isnan(a)) ? a : b; }

/* complex product (ar + i ai)(br + i bi), as numpy forms it */
#define CMUL_RE(ar, ai, br, bi) ((ar) * (br) - (ai) * (bi))
#define CMUL_IM(ar, ai, br, bi) ((ar) * (bi) + (ai) * (br))

/* Bloch right-hand side at one node: d11 and d(rho21) per direction.
 * d11 = gamma*r22 + sum_d Im(omega_d conj(coh_d));
 * dcoh_d = (-gamma/2) coh_d - (0.5i (r22 - r11)) omega_d. */
static void bloch_rhs(double r11, double r22, double coh[2][2],
                      double omega[2][2], double gamma,
                      double *d11, double dcoh[2][2])
{
    double g = -0.5 * gamma;
    double diff = r22 - r11;
    double sre = CMUL_RE(0.0, 0.5, diff, 0.0);
    double sim = CMUL_IM(0.0, 0.5, diff, 0.0);
    double im[2];
    for (int d = 0; d < 2; d++) {
        double cr = coh[d][0], ci = -coh[d][1];
        double or_ = omega[d][0], oi = omega[d][1];
        im[d] = CMUL_IM(or_, oi, cr, ci);
        double are = CMUL_RE(g, 0.0, coh[d][0], coh[d][1]);
        double aim = CMUL_IM(g, 0.0, coh[d][0], coh[d][1]);
        dcoh[d][0] = are - CMUL_RE(sre, sim, or_, oi);
        dcoh[d][1] = aim - CMUL_IM(sre, sim, or_, oi);
    }
    *d11 = gamma * r22 + (im[0] + im[1]);
}

void sfase_step(int n, double dt, double dz, double gamma, double eta,
                double n_at, double sigma, double noise_prefactor,
                double jp_in, const double *pop, const double *coh,
                const double *omega, const double *jp, const double *z,
                double *pop_new, double *coh_new, double *omega_new,
                double *jp_new)
{
    const double *r00 = pop, *r11 = pop + n, *r22 = pop + 2 * n;
    double *r00_new = pop_new, *r11_new = pop_new + n, *r22_new = pop_new + 2 * n;

    /* stages (1)-(2) are skipped once the pump has left the medium: they
     * would give J_p = 0, rho00 unchanged and no influx */
    int pumped = !(jp_in == 0.0);
    for (int k = 0; k < n && !pumped; k++)
        pumped = jp[k] != 0.0;

    double att = -n_at * sigma * dz * 0.5;
    double quarter = -0.25 * dt;
    double sixth = dt / 6.0;
    double decay = exp(-gamma * dt);
    double decay_half = exp(-0.5 * gamma * dt);
    /* the Python complex 0.5j * eta * dz, for finite eta and dz */
    double half_src_re = 0.0, half_src_im = 0.5 * eta * dz;
    double half_dt = 0.5 * dt;

    for (int k = 0; k < n; k++) {
        /* (1) pump advection, trapezoidal Beer-Lambert attenuation;
         * (2) exact ground-state depletion and Simpson-weighted influx */
        double influx11 = 0.0, influx22 = 0.0;
        if (pumped) {
            jp_new[k] = k == 0 ? jp_in
                               : jp[k - 1] * exp(att * (r00[k - 1] + r00[k]));
            double rate0 = sigma * jp[k];
            double rate1 = sigma * jp_new[k];
            double rate_m = 0.5 * (rate0 + rate1);
            double r00_half = r00[k] * exp(quarter * (rate0 + rate_m));
            double r00_k = r00_half * exp(quarter * (rate_m + rate1));
            double delta = r00[k] - r00_k;
            double s0 = rate0 * r00[k];
            double s_mid = rate_m * r00_half;
            double s1 = rate1 * r00_k;
            influx22 = sixth * (s0 * decay + 4.0 * s_mid * decay_half + s1);
            influx22 = np_minimum(influx22, delta);
            influx11 = delta - influx22;
            r00_new[k] = r00_k;
        } else {
            jp_new[k] = jp[k];
            r00_new[k] = r00[k];
        }

        /* (3) field advection with the trapezoidal source; the predicted
         * rho21 at t+dt is also the Heun predictor of stage (4) */
        double c[2][2], o[2][2], c_pred[2][2], o_new[2][2];
        double dcoh[2][2], dcoh_2[2][2], d11, d11_2;
        memcpy(c, coh + 2 * k, 2 * sizeof(double));
        memcpy(c[1], coh + 2 * n + 2 * k, 2 * sizeof(double));
        memcpy(o, omega + 2 * k, 2 * sizeof(double));
        memcpy(o[1], omega + 2 * n + 2 * k, 2 * sizeof(double));
        bloch_rhs(r11[k], r22[k], c, o, gamma, &d11, dcoh);
        for (int d = 0; d < 2; d++) {
            c_pred[d][0] = c[d][0] + CMUL_RE(dt, 0.0, dcoh[d][0], dcoh[d][1]);
            c_pred[d][1] = c[d][1] + CMUL_IM(dt, 0.0, dcoh[d][0], dcoh[d][1]);
        }
        /* the + envelope arrives from node k-1, the - envelope from k+1;
         * nothing enters at z = 0 (+) or z = L (-) */
        for (int d = 0; d < 2; d++) {
            int up = d == 0 ? k - 1 : k + 1;
            if (up < 0 || up >= n) {
                o_new[d][0] = o_new[d][1] = 0.0;
                continue;
            }
            const double *cu = coh + 2 * (d * n + up);
            const double *ou = omega + 2 * (d * n + up);
            double sr = cu[0] + c_pred[d][0], si = cu[1] + c_pred[d][1];
            o_new[d][0] = ou[0] + CMUL_RE(half_src_re, half_src_im, sr, si);
            o_new[d][1] = ou[1] + CMUL_IM(half_src_re, half_src_im, sr, si);
        }

        /* (4) Heun for decay + coupling with the fields at t and t+dt;
         * |1> gains exactly what |2> loses */
        double shift = dt * d11;
        bloch_rhs(r11[k] + shift, r22[k] - shift, c_pred, o_new, gamma,
                  &d11_2, dcoh_2);
        shift = half_dt * (d11 + d11_2);
        r11_new[k] = (r11[k] + shift) + influx11;
        r22_new[k] = (r22[k] - shift) + influx22;
        double scale = 0.0;
        if (z != NULL)
            scale = sqrt(half_dt * (noise_prefactor * np_maximum(r22_new[k], 0.0)));
        for (int d = 0; d < 2; d++) {
            double sr = dcoh[d][0] + dcoh_2[d][0];
            double si = dcoh[d][1] + dcoh_2[d][1];
            double *cn = coh_new + 2 * (d * n + k);
            cn[0] = c[d][0] + CMUL_RE(half_dt, 0.0, sr, si);
            cn[1] = c[d][1] + CMUL_IM(half_dt, 0.0, sr, si);
            double *on = omega_new + 2 * (d * n + k);
            on[0] = o_new[d][0];
            on[1] = o_new[d][1];
            /* (5) spontaneous-emission noise; z rows (Re+, Im+, Re-, Im-) */
            if (z != NULL) {
                cn[0] += z[(2 * d) * n + k] * scale;
                cn[1] += z[(2 * d + 1) * n + k] * scale;
            }
        }
    }
}

/* the compiler that built this file, recorded in run manifests */
const char *sfase_compiler(void)
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}
