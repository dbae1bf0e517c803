//! Pure-optics playground: the classic wave-optics sanity scenes, computed
//! with the same kernels that power DONN training — double-slit fringes,
//! Gaussian beam spreading, and a comparison of the three diffraction
//! approximations.
//!
//! Run with: `cargo run --release --example interference_playground`

use lightridge::viz;
use lr_optics::{
    aperture, Approximation, BeamProfile, Distance, FreeSpace, Grid, Laser, PixelPitch, Wavelength,
};

fn main() {
    let grid = Grid::square(128, PixelPitch::from_um(10.0));
    let lambda = Wavelength::from_nm(532.0);

    // --- Double slit ---
    let mut u = aperture::double_slit(&grid, 20e-6, 240e-6);
    let prop = FreeSpace::new(
        grid,
        lambda,
        Distance::from_mm(40.0),
        Approximation::RayleighSommerfeld,
    );
    // Every hop below runs on this grid, so one scratch serves them all.
    let mut scratch = prop.make_scratch();
    prop.propagate_with(&mut u, &mut scratch);
    println!("double-slit interference at 40 mm:");
    println!("{}", viz::view_intensity(&u, 48));

    // --- Gaussian beam spreading ---
    let laser = Laser::new(lambda, BeamProfile::Gaussian { waist: 80e-6 });
    for &z_mm in &[1.0, 40.0] {
        let mut beam = laser.emit(&grid);
        let prop = FreeSpace::new(
            grid,
            lambda,
            Distance::from_mm(z_mm),
            Approximation::RayleighSommerfeld,
        );
        prop.propagate_with(&mut beam, &mut scratch);
        println!("Gaussian beam intensity after {z_mm} mm:");
        println!("{}", viz::view_intensity(&beam, 40));
    }

    // --- Approximation comparison on a circular aperture ---
    println!("circular-aperture diffraction, Rayleigh-Sommerfeld vs Fresnel at 40 mm:");
    let mut rs = aperture::circular(&grid, 150e-6);
    let mut fr = rs.clone();
    for (u, approx) in [
        (&mut rs, Approximation::RayleighSommerfeld),
        (&mut fr, Approximation::Fresnel),
    ] {
        FreeSpace::new(grid, lambda, Distance::from_mm(40.0), approx)
            .propagate_with(u, &mut scratch);
    }
    println!(
        "{}",
        viz::side_by_side(
            &rs.intensity(),
            &fr.intensity(),
            128,
            128,
            30,
            ("RS", "Fresnel")
        )
    );
    let prop = FreeSpace::new(
        grid,
        lambda,
        Distance::from_mm(40.0),
        Approximation::Fresnel,
    );
    println!(
        "Fresnel validity ratio at this geometry: {:.1} (>> 1 means safe)",
        prop.fresnel_validity_ratio()
    );
}
